#include "lsl/apps.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace lsl::core {

// --- SourceApp ---------------------------------------------------------------

SourceApp::SourceApp(tcp::TcpStack& stack, sim::Endpoint first_hop,
                     SourceConfig config, SessionDirectory* dir)
    : stack_(stack), first_hop_(first_hop), config_(config), dir_(dir) {}

void SourceApp::start() {
  assert(socket_ == nullptr && "start() may only be called once");
  assert((!config_.resumable ||
          (config_.use_header && !config_.header.has_digest())) &&
         "resumable sessions need a header and cannot carry a digest "
         "trailer (MD5 cannot rewind across a resume boundary)");
  start_time_ = stack_.sim().now();

  const bool real = stack_.default_config().carry_data;
  if (real) {
    generator_.emplace(config_.payload_seed);
    // A precomputed trailer (striped lanes ship the merged stream's digest)
    // replaces per-connection hashing.
    if (config_.use_header && config_.header.has_digest() &&
        !config_.trailer_digest) {
      hasher_.emplace();
    }
  }
  open_connection(0);
}

void SourceApp::open_connection(std::uint64_t resume_offset) {
  const bool real = stack_.default_config().carry_data;
  pending_.clear();
  pending_off_ = 0;
  header_virtual_left_ = 0;
  trailer_staged_ = false;
  payload_left_ = config_.payload_bytes - resume_offset;

  conn_offset_ = resume_offset;
  SessionHeader wire_header;
  if (config_.use_header) {
    // The route's first hop is the endpoint we dial; the header we transmit
    // carries the *remaining* hops (the depot we connect to must not see
    // itself in the route, or it would relay to itself).
    wire_header = config_.header.popped();
    if (migrated_) {
      // A migrated session travels a chain that has never seen it:
      // kFlagMigrate (not kFlagResume — fresh depots would refuse an
      // unknown-session resume) with the remaining-bytes convention, so
      // the sink's ledger can splice it at resume_offset.
      wire_header.flags |= kFlagMigrate;
      wire_header.resume_offset = resume_offset;
      wire_header.payload_length = config_.payload_bytes - resume_offset;
    } else if (resumes_ > 0) {
      wire_header.flags |= kFlagResume;
      wire_header.resume_offset = resume_offset;
    }
    header_wire_bytes_ = wire_header.encoded_size();
    if (real) {
      encode_header(wire_header, pending_);
    } else {
      header_virtual_left_ = header_wire_bytes_;
    }
  } else {
    header_wire_bytes_ = 0;
  }
  if (real && generator_) generator_->seek(resume_offset);

  socket_ = stack_.connect(first_hop_);
  if (config_.use_header && dir_ != nullptr && !real) {
    dir_->publish(socket_->local(), wire_header);
  }
  socket_->on_established = [this] {
    established_time_ = stack_.sim().now();
    pump();
  };
  socket_->on_writable = [this] { pump(); };
  socket_->on_error = [this](tcp::TcpError err) {
    LSL_LOG_DEBUG("source: connection error %s", tcp::to_string(err));
    handle_connection_error();
  };
}

void SourceApp::handle_connection_error() {
  if (finished_) return;
  if (!config_.resumable) {
    finished_ = true;
    if (on_finished) on_finished();
    return;
  }
  // A backoff policy decides the reconnect delay — and whether to keep
  // trying at all. Without one, the fixed re-association delay applies.
  util::SimDuration delay = config_.resume_reconnect_delay;
  if (config_.reconnect_backoff) {
    const auto next = config_.reconnect_backoff();
    if (!next) {
      // Attempt budget exhausted: abandon the transfer.
      gave_up_ = true;
      finished_ = true;
      socket_->on_closed = nullptr;
      socket_->on_writable = nullptr;
      socket_ = nullptr;
      if (on_finished) on_finished();
      return;
    }
    delay = *next;
  }
  // Resume from the highest payload byte the dead connection delivered and
  // had acknowledged; everything beyond it is retransmitted.
  const std::uint64_t acked = socket_->stats().bytes_acked;
  std::uint64_t acked_payload =
      acked > header_wire_bytes_ ? acked - header_wire_bytes_ : 0;
  // Post-migration connections start mid-stream, so the conn-relative ack
  // count must be rebased to a global offset. (Pre-migration resumes keep
  // the historical conservative floor: the depot rebind path discards the
  // duplicated prefix either way.)
  if (migrated_) acked_payload += conn_offset_;
  acked_payload = std::min(acked_payload, config_.payload_bytes);
  ++resumes_;
  // Detach from the dead socket: its on_closed (fired right after this
  // error callback) must not mark the session finished.
  socket_->on_closed = nullptr;
  socket_->on_writable = nullptr;
  socket_ = nullptr;  // the dead socket stays owned by the stack
  const std::uint64_t epoch = epoch_;
  stack_.sim().events().schedule_in(delay, [this, acked_payload, epoch] {
    if (!finished_ && epoch == epoch_) open_connection(acked_payload);
  });
}

bool SourceApp::migrate(sim::Endpoint new_first_hop,
                        std::vector<HopAddress> hops, std::uint64_t floor) {
  assert(config_.resumable &&
         "migration rides the resume machinery: the source must be resumable");
  if (gave_up_ || socket_ == nullptr) return false;
  if (floor >= config_.payload_bytes) return false;
  // A source that already queued everything — even one whose FIN handshake
  // completed — can still migrate: its bytes may be stranded in a dying
  // chain's buffers downstream. The sink's acknowledged frontier, not our
  // send counter or FIN, is the truth about delivery.
  finished_ = false;

  ++epoch_;  // void any pending reconnect event from the old chain
  migrated_ = true;
  ++migrations_;

  // Detach and abort the old connection; the old chain's depots will park
  // or fail the husk on their own (their bytes-in-flight die with it —
  // that is why the floor comes from the sink, not from our ack counter).
  socket_->on_error = nullptr;
  socket_->on_closed = nullptr;
  socket_->on_writable = nullptr;
  if (socket_->state() != tcp::TcpState::kClosed) socket_->abort();
  socket_ = nullptr;

  first_hop_ = new_first_hop;
  config_.header.hops = std::move(hops);
  open_connection(floor);
  return true;
}

void SourceApp::simulate_disconnect() {
  if (socket_ != nullptr && socket_->state() != tcp::TcpState::kClosed) {
    socket_->abort();  // fires on_error -> resume machinery
  }
}

void SourceApp::pump() {
  if (finished_ || socket_ == nullptr) return;
  const bool real = socket_->config().carry_data;

  for (;;) {
    // 1. Header bytes.
    if (!real && header_virtual_left_ > 0) {
      const std::uint64_t took = socket_->send_virtual(header_virtual_left_);
      header_virtual_left_ -= took;
      if (header_virtual_left_ > 0) return;  // buffer full; resume on_writable
    }
    if (real && pending_off_ < pending_.size()) {
      const std::size_t took = socket_->send(std::span<const std::uint8_t>(
          pending_.data() + pending_off_, pending_.size() - pending_off_));
      pending_off_ += took;
      if (pending_off_ < pending_.size()) return;
      if (trailer_staged_) break;  // trailer fully queued: done
      pending_.clear();
      pending_off_ = 0;
    }

    // 2. Payload.
    if (payload_left_ > 0) {
      if (real) {
        std::uint8_t buf[16 * 1024];
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>({payload_left_, sizeof(buf),
                                     socket_->send_space()}));
        if (want == 0) return;
        if (config_.payload_fill) {
          config_.payload_fill(config_.payload_bytes - payload_left_,
                               std::span<std::uint8_t>(buf, want));
        } else {
          generator_->generate(std::span<std::uint8_t>(buf, want));
        }
        if (hasher_) {
          hasher_->update(std::span<const std::uint8_t>(buf, want));
        }
        // Fault injection: flip one byte after it was digested, so the
        // wire carries corrupted payload under an honest trailer and the
        // sink's end-to-end MD5 check fires.
        if (config_.corrupt_at_byte) {
          const std::uint64_t position =
              config_.payload_bytes - payload_left_;
          const std::uint64_t off = *config_.corrupt_at_byte;
          if (off >= position && off < position + want) {
            buf[static_cast<std::size_t>(off - position)] ^= 0x5a;
            if (config_.on_corrupt) config_.on_corrupt(off);
          }
        }
        const std::size_t took =
            socket_->send(std::span<const std::uint8_t>(buf, want));
        assert(took == want);
        payload_left_ -= took;
      } else {
        const std::uint64_t took = socket_->send_virtual(payload_left_);
        payload_left_ -= took;
        if (payload_left_ > 0) return;
      }
      continue;
    }

    // 3. Digest trailer (real mode with the digest flag): hashed here, or
    // the caller-supplied merged-stream digest for striped lanes.
    const bool send_trailer =
        real && config_.use_header && config_.header.has_digest();
    if (send_trailer && !trailer_staged_) {
      const md5::Digest d =
          hasher_ ? hasher_->finalize() : *config_.trailer_digest;
      pending_.assign(d.bytes.begin(), d.bytes.end());
      pending_off_ = 0;
      trailer_staged_ = true;
      continue;
    }
    break;
  }

  // Everything queued into the socket buffer: half-close.
  socket_->close();
  socket_->on_writable = nullptr;
  if (config_.resumable) {
    // Delivery is only certain once the FIN handshake completes; a failure
    // before that re-enters the resume machinery via on_error.
    socket_->on_closed = [this] {
      if (finished_) return;
      finished_ = true;
      if (on_finished) on_finished();
    };
    return;
  }
  finished_ = true;
  if (on_finished) on_finished();
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

std::uint64_t ParallelSinkServer::payload_received() const {
  std::uint64_t total = 0;
  for (const auto& s : server_->sinks()) total += s->payload_received();
  return total;
}

}  // namespace lsl::core
