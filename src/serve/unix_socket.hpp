// Unix-domain stream sockets for the server, its blocking client and the
// fleet supervisor: the one place that fills `sockaddr_un`, binds, listens,
// connects, and owns the I/O loops' policies. Every send is SIGPIPE-safe
// (MSG_NOSIGNAL), so a peer that hangs up costs its own connection, never
// the process; every blocking call retries EINTR. Descriptors are
// close-on-exec, so fleet workers never inherit a listener or a client.
//
// `who` prefixes each error message ("serve", "fleet").
#pragma once

#include <cstddef>
#include <string>

namespace ivory::serve {

/// Throws InvalidParameter naming `path` when it is too long for a Unix
/// socket address.
void check_socket_path(const std::string& path, const char* who);

/// Removes a stale socket at `path`, binds a stream socket there and
/// listens. Returns the listening descriptor; throws InvalidParameter on
/// an overlong path or a failed socket/bind/listen.
int listen_unix(const std::string& path, const char* who);

/// Connects to the socket at `path`; -1 (errno set) when nothing accepts
/// there. `timeout_ms` > 0 also arms send and receive timeouts, so a hung
/// peer cannot wedge the caller. Throws only on an overlong path.
int connect_unix(const std::string& path, const char* who, int timeout_ms = 0);

/// The next connection on a listening descriptor; -1 once it is shut down.
int accept_unix(int listen_fd);

/// Bytes read into `buf` (at most `cap`), 0 at EOF, -1 on error or on a
/// receive timeout.
std::ptrdiff_t recv_some(int fd, char* buf, std::size_t cap);

/// Sends all `n` bytes, blocking as needed. False once the peer is gone.
bool send_all(int fd, const char* data, std::size_t n);

/// One non-blocking send: the bytes the socket takes now, 0 when its
/// buffer is full, -1 when the peer is gone.
std::ptrdiff_t try_send(int fd, const char* data, std::size_t n);

/// Bounds every later blocking send on `fd` by `timeout_ms`.
void set_send_timeout(int fd, int timeout_ms);

}  // namespace ivory::serve
