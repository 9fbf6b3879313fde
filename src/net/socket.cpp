#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

namespace tsched::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
    throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw std::system_error(EINVAL, std::generic_category(),
                                "inet_pton: bad IPv4 address '" + host + "'");
    return addr;
}

}  // namespace

void FdHandle::reset() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Listener listen_tcp(const std::string& host, std::uint16_t port, int backlog) {
    FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) throw_errno("socket");
    const int one = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one) != 0)
        throw_errno("setsockopt(SO_REUSEADDR)");
    sockaddr_in addr = make_addr(host, port);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
        throw_errno("bind");
    if (::listen(fd.get(), backlog) != 0) throw_errno("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0)
        throw_errno("getsockname");
    Listener listener;
    listener.fd = std::move(fd);
    listener.port = ntohs(addr.sin_port);
    return listener;
}

FdHandle connect_tcp(const std::string& host, std::uint16_t port) {
    FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) throw_errno("socket");
    sockaddr_in addr = make_addr(host, port);
    int rc = 0;
    do {
        rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) throw_errno("connect");
    set_nodelay(fd.get());
    return fd;
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) throw_errno("fcntl(F_GETFL)");
    if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) throw_errno("fcntl(F_SETFL)");
}

Pipe make_nonblocking_pipe() {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) throw_errno("pipe");
    Pipe pipe{FdHandle(fds[0]), FdHandle(fds[1])};
    set_nonblocking(pipe.read.get());
    set_nonblocking(pipe.write.get());
    return pipe;
}

void set_nodelay(int fd) {
    const int one = 1;
    // Best effort: TCP_NODELAY can legitimately fail on non-TCP fds in
    // tests; latency tuning must never abort a session.
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

long read_some(int fd, char* buffer, std::size_t size) noexcept {
    while (true) {
        const ssize_t n = ::recv(fd, buffer, size, 0);
        if (n > 0) return static_cast<long>(n);
        if (n == 0) return -1;  // orderly EOF
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
        return -1;
    }
}

long write_some(int fd, const char* data, std::size_t size) noexcept {
    std::size_t written = 0;
    while (written < size) {
        const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
        if (n > 0) {
            written += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return -1;
    }
    return static_cast<long>(written);
}

}  // namespace tsched::net
