#include "serve/unix_socket.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace ivory::serve {

namespace {

[[noreturn]] void sys_fail(const char* who, const std::string& what) {
  throw InvalidParameter(std::string(who) + ": " + what + ": " + std::strerror(errno));
}

sockaddr_un address(const std::string& path, const char* who) {
  check_socket_path(path, who);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

/// close() that leaves errno as the failed call before it set it.
void close_keeping_errno(int fd) {
  const int saved = errno;
  ::close(fd);
  errno = saved;
}

void set_timeout(int fd, int option, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
}

}  // namespace

void check_socket_path(const std::string& path, const char* who) {
  if (path.size() >= sizeof(sockaddr_un::sun_path))
    throw InvalidParameter(std::string(who) +
                           ": socket path longer than sockaddr_un allows: " + path);
}

int listen_unix(const std::string& path, const char* who) {
  const sockaddr_un addr = address(path, who);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail(who, "socket");
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    close_keeping_errno(fd);
    sys_fail(who, "bind " + path);
  }
  if (::listen(fd, 64) < 0) {
    close_keeping_errno(fd);
    sys_fail(who, "listen");
  }
  return fd;
}

int connect_unix(const std::string& path, const char* who, int timeout_ms) {
  const sockaddr_un addr = address(path, who);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    close_keeping_errno(fd);
    return -1;
  }
  if (timeout_ms > 0) {
    set_timeout(fd, SO_RCVTIMEO, timeout_ms);
    set_timeout(fd, SO_SNDTIMEO, timeout_ms);
  }
  return fd;
}

int accept_unix(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

std::ptrdiff_t recv_some(int fd, char* buf, std::size_t cap) {
  for (;;) {
    const ssize_t r = ::recv(fd, buf, cap, 0);
    if (r >= 0 || errno != EINTR) return r;
  }
}

bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

std::ptrdiff_t try_send(int fd, const char* data, std::size_t n) {
  for (;;) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w >= 0) return w;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK ? 0 : -1;
  }
}

void set_send_timeout(int fd, int timeout_ms) { set_timeout(fd, SO_SNDTIMEO, timeout_ms); }

}  // namespace ivory::serve
