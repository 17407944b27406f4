#include "shard/transport.h"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace chef::shard {

namespace {

// ---------------------------------------------------------------------------
// Loopback.
// ---------------------------------------------------------------------------

/// One direction of a loopback pair. Closed is sticky; queued messages
/// drain before kClosed is reported, matching fd EOF semantics.
struct Channel {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::string> queue;
    bool closed = false;
};

class LoopbackEndpoint : public Transport
{
  public:
    LoopbackEndpoint(std::shared_ptr<Channel> out,
                     std::shared_ptr<Channel> in)
        : out_(std::move(out)), in_(std::move(in))
    {
    }

    ~LoopbackEndpoint() override { Close(); }

    bool Send(const std::string& message) override
    {
        {
            std::lock_guard<std::mutex> lock(out_->mutex);
            if (out_->closed) {
                return false;
            }
            out_->queue.push_back(message);
        }
        out_->cv.notify_one();
        return true;
    }

    RecvStatus Receive(std::string* message, int timeout_ms) override
    {
        std::unique_lock<std::mutex> lock(in_->mutex);
        const auto ready = [this] {
            return !in_->queue.empty() || in_->closed;
        };
        if (timeout_ms < 0) {
            in_->cv.wait(lock, ready);
        } else if (!in_->cv.wait_for(
                       lock, std::chrono::milliseconds(timeout_ms),
                       ready)) {
            return RecvStatus::kTimeout;
        }
        if (in_->queue.empty()) {
            return RecvStatus::kClosed;
        }
        *message = std::move(in_->queue.front());
        in_->queue.pop_front();
        return RecvStatus::kMessage;
    }

    void Close() override
    {
        for (const std::shared_ptr<Channel>& channel : {out_, in_}) {
            {
                std::lock_guard<std::mutex> lock(channel->mutex);
                channel->closed = true;
            }
            channel->cv.notify_all();
        }
    }

  private:
    std::shared_ptr<Channel> out_;
    std::shared_ptr<Channel> in_;
};

// ---------------------------------------------------------------------------
// Fd transport.
// ---------------------------------------------------------------------------

void
IgnoreSigpipeOnce()
{
    // A peer process dying mid-write must surface as EPIPE from
    // write(2), not terminate us.
    static const bool ignored = [] {
        std::signal(SIGPIPE, SIG_IGN);
        return true;
    }();
    (void)ignored;
}

class FdTransport : public Transport
{
  public:
    FdTransport(int read_fd, int write_fd, bool owns_fds)
        : read_fd_(read_fd), write_fd_(write_fd), owns_fds_(owns_fds)
    {
        IgnoreSigpipeOnce();
    }

    ~FdTransport() override { Close(); }

    bool Send(const std::string& message) override
    {
        std::lock_guard<std::mutex> lock(write_mutex_);
        if (write_fd_ < 0) {
            return false;
        }
        std::string line = message;
        line += '\n';
        size_t written = 0;
        while (written < line.size()) {
            const ssize_t n = ::write(write_fd_, line.data() + written,
                                      line.size() - written);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                return false;  // EPIPE: peer gone.
            }
            written += static_cast<size_t>(n);
        }
        return true;
    }

    RecvStatus Receive(std::string* message, int timeout_ms) override
    {
        std::lock_guard<std::mutex> lock(read_mutex_);
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
        for (;;) {
            // Serve from the buffer first: poll() must not be consulted
            // while a complete line is already in hand.
            const size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                message->assign(buffer_, 0, newline);
                buffer_.erase(0, newline + 1);
                return RecvStatus::kMessage;
            }
            if (eof_) {
                // A partial trailing line is a truncated stream, not a
                // message; drop it and report closed.
                return RecvStatus::kClosed;
            }
            // Past the deadline the poll still runs with a zero wait, so
            // a line longer than one read keeps arriving for as long as
            // its bytes are already in the pipe; only an empty pipe ends
            // the call. (A timeout_ms == 0 probe thus reads a whole
            // pending frame, not one chunk of it per call.)
            int wait_ms = -1;
            if (timeout_ms >= 0) {
                const auto remaining =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
                wait_ms = remaining > 0 ? static_cast<int>(remaining) : 0;
            }
            struct pollfd pfd;
            pfd.fd = read_fd_;
            pfd.events = POLLIN;
            pfd.revents = 0;
            const int ready = ::poll(&pfd, 1, wait_ms);
            if (ready < 0) {
                if (errno == EINTR) {
                    continue;
                }
                eof_ = true;
                continue;
            }
            if (ready == 0) {
                return RecvStatus::kTimeout;
            }
            char chunk[4096];
            const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                eof_ = true;
            } else if (n == 0) {
                eof_ = true;
            } else {
                buffer_.append(chunk, static_cast<size_t>(n));
            }
        }
    }

    void Close() override
    {
        std::lock_guard<std::mutex> read_lock(read_mutex_);
        std::lock_guard<std::mutex> write_lock(write_mutex_);
        if (owns_fds_) {
            if (read_fd_ >= 0) {
                ::close(read_fd_);
            }
            if (write_fd_ >= 0 && write_fd_ != read_fd_) {
                ::close(write_fd_);
            }
        }
        read_fd_ = -1;
        write_fd_ = -1;
        eof_ = true;
    }

  private:
    std::mutex read_mutex_;
    std::mutex write_mutex_;
    int read_fd_;
    int write_fd_;
    bool owns_fds_;
    std::string buffer_;
    bool eof_ = false;
};

}  // namespace

LoopbackPair
CreateLoopbackPair()
{
    auto forward = std::make_shared<Channel>();
    auto backward = std::make_shared<Channel>();
    LoopbackPair pair;
    pair.a = std::make_unique<LoopbackEndpoint>(forward, backward);
    pair.b = std::make_unique<LoopbackEndpoint>(backward, forward);
    return pair;
}

std::unique_ptr<Transport>
CreateFdTransport(int read_fd, int write_fd, bool owns_fds)
{
    return std::make_unique<FdTransport>(read_fd, write_fd, owns_fds);
}

bool
SpawnWorkerProcess(const std::string& binary,
                   const std::vector<std::string>& args,
                   WorkerProcess* process, std::string* error)
{
    IgnoreSigpipeOnce();
    int to_child[2];    // coordinator writes -> child stdin.
    int from_child[2];  // child stdout -> coordinator reads.
    if (::pipe(to_child) != 0) {
        if (error != nullptr) {
            *error = std::string("pipe: ") + std::strerror(errno);
        }
        return false;
    }
    if (::pipe(from_child) != 0) {
        if (error != nullptr) {
            *error = std::string("pipe: ") + std::strerror(errno);
        }
        ::close(to_child[0]), ::close(to_child[1]);
        return false;
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        if (error != nullptr) {
            *error = std::string("fork: ") + std::strerror(errno);
        }
        ::close(to_child[0]), ::close(to_child[1]);
        ::close(from_child[0]), ::close(from_child[1]);
        return false;
    }

    if (pid == 0) {
        // Child: protocol on stdin/stdout, stderr passes through.
        ::dup2(to_child[0], STDIN_FILENO);
        ::dup2(from_child[1], STDOUT_FILENO);
        ::close(to_child[0]), ::close(to_child[1]);
        ::close(from_child[0]), ::close(from_child[1]);
        std::vector<char*> argv;
        std::string argv0 = binary;
        argv.push_back(argv0.data());
        std::vector<std::string> owned = args;
        for (std::string& arg : owned) {
            argv.push_back(arg.data());
        }
        argv.push_back(nullptr);
        ::execv(binary.c_str(), argv.data());
        // exec failed: nothing sane to do but exit; the parent sees the
        // transport close without a hello.
        std::fprintf(stderr, "chef_shard: execv %s: %s\n", binary.c_str(),
                     std::strerror(errno));
        ::_exit(127);
    }

    ::close(to_child[0]);
    ::close(from_child[1]);
    process->pid = pid;
    process->transport =
        CreateFdTransport(from_child[0], to_child[1], /*owns_fds=*/true);
    return true;
}

bool
ProbeWorkerProcess(pid_t pid, std::string* cause)
{
    int status = 0;
    for (;;) {
        const pid_t waited = ::waitpid(pid, &status, WNOHANG);
        if (waited == 0) {
            return true;  // Still running.
        }
        if (waited < 0) {
            if (errno == EINTR) {
                continue;
            }
            // ECHILD: already reaped (a prior probe or wait saw it die).
            if (cause != nullptr) {
                *cause = std::string("waitpid: ") + std::strerror(errno);
            }
            return false;
        }
        break;
    }
    if (cause != nullptr) {
        if (WIFEXITED(status)) {
            *cause = "exited with status " +
                     std::to_string(WEXITSTATUS(status));
        } else if (WIFSIGNALED(status)) {
            *cause =
                "killed by signal " + std::to_string(WTERMSIG(status));
        } else {
            *cause = "terminated abnormally";
        }
    }
    return false;
}

int
WaitWorkerProcess(pid_t pid)
{
    int status = 0;
    for (;;) {
        const pid_t waited = ::waitpid(pid, &status, 0);
        if (waited < 0) {
            if (errno == EINTR) {
                continue;
            }
            return -1;
        }
        break;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace chef::shard
