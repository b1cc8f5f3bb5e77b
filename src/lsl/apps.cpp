#include "lsl/apps.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace lsl::core {

// --- SourceApp ---------------------------------------------------------------

SourceApp::SourceApp(tcp::TcpStack& stack, sim::Endpoint first_hop,
                     SourceConfig config, SessionDirectory* dir)
    : stack_(stack),
      first_hop_(first_hop),
      dir_(dir),
      reconnect_backoff_(std::move(config.reconnect_backoff)),
      core_(*this, std::move(config), stack.default_config().carry_data) {}

void SourceApp::start() {
  start_time_ = stack_.sim().now();
  core_.start();
}

void SourceApp::dial() {
  socket_ = stack_.connect(first_hop_);
  if (core_.use_header() && dir_ != nullptr &&
      !socket_->config().carry_data) {
    dir_->publish(socket_->local(), core_.wire_header());
  }
  socket_->on_established = [this] { pump(); };
  socket_->on_writable = [this] { pump(); };
  socket_->on_error = [this, s = socket_](tcp::TcpError err) {
    LSL_LOG_DEBUG("source: connection error %s", tcp::to_string(err));
    core_.acked(s->stats().bytes_acked);
    core_.lost();
  };
}

void SourceApp::hang_up() {
  ++epoch_;  // void any pending reconnect
  if (socket_ == nullptr) return;
  // A dead socket's on_closed fires right after its error callback, and
  // must not reach the core; a live one is aborted silently.
  socket_->on_closed = nullptr;
  socket_->on_writable = nullptr;
  if (socket_->state() != tcp::TcpState::kClosed) {
    socket_->on_error = nullptr;
    socket_->abort();
  }
  socket_ = nullptr;  // the socket stays owned by the stack
}

std::optional<std::int64_t> SourceApp::backoff() {
  return reconnect_backoff_(core_.floor());
}

void SourceApp::wait(std::int64_t delay) {
  stack_.sim().events().schedule_in(delay, [this, epoch = epoch_] {
    if (epoch == epoch_) core_.redial();
  });
}

void SourceApp::end(bool) {
  if (on_finished) on_finished();
}

bool SourceApp::migrate(sim::Endpoint new_first_hop,
                        std::vector<HopAddress> hops, std::uint64_t floor) {
  if (!core_.can_migrate(floor)) return false;
  first_hop_ = new_first_hop;
  return core_.migrate(std::move(hops), floor);
}

void SourceApp::simulate_disconnect() {
  if (socket_ != nullptr && socket_->state() != tcp::TcpState::kClosed) {
    socket_->abort();  // fires on_error -> resume machinery
  }
}

void SourceApp::pump() {
  if (socket_ == nullptr || core_.finished() || core_.closing()) return;
  if (socket_->config().carry_data) {
    for (;;) {
      std::uint8_t buf[16 * 1024];
      const std::size_t room = static_cast<std::size_t>(
          std::min<std::uint64_t>(sizeof(buf), socket_->send_space()));
      const std::span<const std::uint8_t> out =
          core_.next(std::span<std::uint8_t>(buf, room));
      if (out.empty()) {
        if (!core_.write_done()) return;  // buffer full; resume on_writable
        break;
      }
      const std::size_t took = socket_->send(out);
      core_.wrote(took);
      // Payload slices fit send_space(); only header and trailer bytes
      // can wait for room.
      assert(took == out.size() || out.data() != buf);
      if (took < out.size()) return;
    }
  } else {
    while (!core_.write_done()) {
      const std::uint64_t want = core_.next_virtual();
      const std::uint64_t took = socket_->send_virtual(want);
      core_.wrote(took);
      if (took < want) return;  // buffer full; resume on_writable
    }
  }

  // Everything queued into the socket buffer: half-close.
  socket_->close();
  socket_->on_writable = nullptr;
  // A resumable session is delivered once the peer closes too (the core
  // ignores the close of one that already ended).
  socket_->on_closed = [this] { core_.closed(true); };
  core_.half_closed();
}

// --- SinkApp -----------------------------------------------------------------

SinkApp::SinkApp(tcp::TcpSocket* socket, SinkCore& core, bool expect_header,
                 SessionDirectory* dir)
    : socket_(socket), core_(core) {
  core_.open(stream_, socket_->now());
  if (expect_header && !socket_->config().carry_data) {
    // Virtual mode: header contents come from the directory; the bytes are
    // still consumed from the stream below.
    auto h = dir != nullptr ? dir->consume(socket_->remote()) : std::nullopt;
    if (h) {
      stream_.header = std::move(*h);
      header_virtual_left_ = stream_.header->encoded_size();
    } else {
      LSL_LOG_WARN("sink: no published header for incoming session");
    }
  }

  socket_->on_readable = [this] { on_readable(); };
  socket_->on_error = [this](tcp::TcpError err) {
    LSL_LOG_WARN("sink: connection error %s", tcp::to_string(err));
    if (socket_->config().carry_data) core_.end(stream_, true);
  };
  // Data may already be buffered (header piggybacked on the establishing
  // segment exchange).
  if (socket_->readable() > 0 || socket_->eof()) on_readable();
}

void SinkApp::on_readable() {
  if (complete_ || stream_.refused) return;
  if (socket_->config().carry_data) {
    consume_real();
    if (stream_.refused) return;
  } else {
    consume_virtual();
  }
  if (socket_->eof() && socket_->readable() == 0) finish();
}

void SinkApp::consume_virtual() {
  if (header_virtual_left_ > 0) {
    header_virtual_left_ -= socket_->recv_virtual(header_virtual_left_);
    if (header_virtual_left_ > 0) return;
  }
  stream_.payload_received += socket_->recv_virtual(~std::uint64_t{0});
}

void SinkApp::consume_real() {
  std::uint8_t buf[kSinkReadBytes];
  while (socket_->readable() > 0) {
    const std::size_t got =
        socket_->recv(std::span<std::uint8_t>(buf, core_.want(stream_)));
    if (got == 0) return;
    core_.ingest(stream_, std::span<const std::uint8_t>(buf, got));
    // The simulator carries no status byte: a refused stream is aborted,
    // and every other verdict is read at EOF.
    if (stream_.refused) {
      socket_->abort();
      return;
    }
  }
}

void SinkApp::finish() {
  complete_ = true;
  complete_time_ = socket_->now();
  if (socket_->config().carry_data) {
    core_.end(stream_, false);
  } else {
    stream_.ok = true;
  }
  socket_->close();  // complete the FIN handshake from our side
  if (on_complete) on_complete(*this);
}

// --- SinkServer --------------------------------------------------------------

SinkServer::SinkServer(tcp::TcpStack& stack, sim::PortNum port,
                       SinkConfig config, SessionDirectory* dir)
    : stack_(stack),
      core_(*this, config.expect_header, config.verify_payload,
            /*check_content=*/true, config.payload_seed, config.ledger) {
  stack_.listen(port, [this, expect = config.expect_header,
                       dir](tcp::TcpSocket* s) {
    auto sink = std::make_unique<SinkApp>(s, core_, expect, dir);
    sink->on_complete = [this](SinkApp& app) {
      if (on_complete) on_complete(app);
    };
    sinks_.push_back(std::move(sink));
  });
}

// --- Parallel (PSockets-style) baseline --------------------------------------

ParallelSource::ParallelSource(tcp::TcpStack& stack, sim::Endpoint sink,
                               std::uint64_t payload_bytes,
                               std::size_t streams) {
  assert(streams > 0);
  const std::uint64_t share = payload_bytes / streams;
  std::uint64_t remainder = payload_bytes % streams;
  for (std::size_t i = 0; i < streams; ++i) {
    SourceConfig cfg;
    cfg.payload_bytes = share + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    sources_.push_back(
        std::make_unique<SourceApp>(stack, sink, cfg, nullptr));
  }
}

void ParallelSource::start() {
  for (auto& s : sources_) {
    s->start();
    if (start_time_ == 0) start_time_ = s->start_time();
  }
}

ParallelSinkServer::ParallelSinkServer(tcp::TcpStack& stack, sim::PortNum port,
                                       std::size_t streams)
    : expected_(streams) {
  SinkConfig cfg;  // plain TCP streams, no header
  server_ = std::make_unique<SinkServer>(stack, port, cfg, nullptr);
  server_->on_complete = [this](SinkApp& app) {
    ++completed_;
    if (completed_ == expected_) {
      complete_time_ = app.complete_time();
      if (on_complete) on_complete();
    }
  };
}

}  // namespace lsl::core
