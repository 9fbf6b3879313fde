// Thin POSIX socket helpers shared by the server and client (DESIGN §17).
//
// Dependency-free: <sys/socket.h> and friends only.  Everything here throws
// std::system_error with the failing call's errno, so callers get "bind:
// Address already in use" instead of a silent -1.  The FdHandle is the only
// ownership primitive — one fd, closed exactly once, movable, never copied.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace tsched::net {

/// RAII file descriptor.  -1 means empty.
class FdHandle {
public:
    FdHandle() = default;
    explicit FdHandle(int fd) noexcept : fd_(fd) {}
    ~FdHandle() { reset(); }

    FdHandle(const FdHandle&) = delete;
    FdHandle& operator=(const FdHandle&) = delete;
    FdHandle(FdHandle&& other) noexcept : fd_(other.release()) {}
    FdHandle& operator=(FdHandle&& other) noexcept {
        if (this != &other) {
            reset();
            fd_ = other.release();
        }
        return *this;
    }

    [[nodiscard]] int get() const noexcept { return fd_; }
    [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
    [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }
    void reset() noexcept;

private:
    int fd_ = -1;
};

/// A bound, listening TCP socket plus the port it actually landed on
/// (`port` resolves the ephemeral-port case: bind with port 0, read back
/// with getsockname — the flake-proof discovery every script uses).
struct Listener {
    FdHandle fd;
    std::uint16_t port = 0;
};

/// Both ends of a pipe(2), each switched to O_NONBLOCK.
struct Pipe {
    FdHandle read;
    FdHandle write;
};

/// Create a nonblocking pipe.  Throws std::system_error on failure.
[[nodiscard]] Pipe make_nonblocking_pipe();

/// Bind + listen on host:port (port 0 = kernel-assigned ephemeral port).
/// SO_REUSEADDR is set so a restarting server does not trip over
/// TIME_WAIT.  Throws std::system_error on failure.
[[nodiscard]] Listener listen_tcp(const std::string& host, std::uint16_t port, int backlog = 64);

/// Blocking connect to host:port.  Throws std::system_error on failure.
[[nodiscard]] FdHandle connect_tcp(const std::string& host, std::uint16_t port);

/// Switch O_NONBLOCK on.  Throws std::system_error on failure.
void set_nonblocking(int fd);

/// Disable Nagle (TCP_NODELAY): request/response frames are latency-bound
/// and tiny, exactly the workload delayed ACK + Nagle interact badly with.
void set_nodelay(int fd);

/// Nonblocking read into `buffer`.  Returns bytes read (> 0), 0 for EAGAIN
/// (no data right now), or -1 for EOF/connection error (the caller closes).
[[nodiscard]] long read_some(int fd, char* buffer, std::size_t size) noexcept;

/// Nonblocking write of as much of data[offset..] as the kernel accepts.
/// Returns bytes written (>= 0) or -1 for a connection error.
[[nodiscard]] long write_some(int fd, const char* data, std::size_t size) noexcept;

}  // namespace tsched::net
