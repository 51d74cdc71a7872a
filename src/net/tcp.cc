#include "net/tcp.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/host.h"
#include "obs/prof.h"

namespace bnm::net {

namespace {
// Sequence-space comparison (RFC 793 modular arithmetic).
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_leq(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
}  // namespace

const char* TcpConnection::state_name(State s) {
  switch (s) {
    case State::kClosed: return "CLOSED";
    case State::kSynSent: return "SYN_SENT";
    case State::kSynRcvd: return "SYN_RCVD";
    case State::kEstablished: return "ESTABLISHED";
    case State::kFinWait1: return "FIN_WAIT_1";
    case State::kFinWait2: return "FIN_WAIT_2";
    case State::kCloseWait: return "CLOSE_WAIT";
    case State::kLastAck: return "LAST_ACK";
    case State::kClosing: return "CLOSING";
    case State::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

TcpConnection::TcpConnection(Host& host, FourTuple tuple, TcpConfig config,
                             bool initiator, std::uint32_t isn)
    : host_{host},
      tuple_{tuple},
      config_{config},
      initiator_{initiator},
      iss_{isn},
      snd_una_{isn},
      snd_nxt_{isn},
      rto_current_{config.rto_initial} {
  // Passive-open connections are created by the host in response to a SYN
  // and handle that SYN immediately afterwards.
  if (!initiator_) state_ = State::kSynRcvd;
  cwnd_ = static_cast<double>(config_.initial_cwnd_segments * config_.mss);
  ssthresh_ = static_cast<double>(config_.send_window);
}

std::uint32_t TcpConnection::tsval_now() const {
  const std::int64_t granule =
      std::max<std::int64_t>(config_.ts_granule.ns(), 1);
  const std::int64_t ticks = host_.sim().now().ns_since_epoch() / granule;
  return config_.ts_offset + static_cast<std::uint32_t>(ticks);
}

void TcpConnection::stamp_timestamps(Packet& pkt) const {
  if (!ts_ok_) return;
  pkt.ts.present = true;
  pkt.ts.tsval = tsval_now();
  pkt.ts.tsecr = ts_recent_valid_ ? ts_recent_ : 0;
}

void TcpConnection::note_ts_recent(const Packet& seg) {
  if (!ts_ok_ || !seg.ts.present) return;
  // Update only when the segment sits at (or left of) the last ACK we sent:
  // a burst received before a cumulative ACK leaves TS.Recent at the burst's
  // *first* segment, so the delayed ACK's TSecr times the full round trip
  // including the delayed-ACK wait — exactly RFC 7323 §4.3.
  if (!seq_leq(seg.seq, last_ack_sent_)) return;
  if (ts_recent_valid_ &&
      static_cast<std::int32_t>(seg.ts.tsval - ts_recent_) < 0) {
    return;  // older timestamp (e.g. a reordered segment): keep TS.Recent
  }
  ts_recent_ = seg.ts.tsval;
  ts_recent_valid_ = true;
}

std::size_t TcpConnection::effective_window() const {
  if (!config_.congestion_control) return config_.send_window;
  return std::min(config_.send_window,
                  static_cast<std::size_t>(cwnd_));
}

void TcpConnection::enter(State next) {
  if (host_.sim().trace().enabled()) {
    host_.sim().trace().emit(host_.sim().now(), "tcp/" + tuple_.to_string(),
                             std::string{state_name(state_)} + " -> " +
                                 state_name(next));
  }
  state_ = next;
}

void TcpConnection::start_active_open() {
  assert(initiator_);
  assert(state_ == State::kClosed);
  enter(State::kSynSent);
  Packet syn;
  syn.protocol = Protocol::kTcp;
  syn.src = tuple_.local;
  syn.dst = tuple_.remote;
  syn.flags.syn = true;
  syn.seq = iss_;
  if (config_.timestamps) {
    // Offer RFC 7323 timestamps; TSecr is zero until the peer accepts.
    syn.ts.present = true;
    syn.ts.tsval = tsval_now();
  }
  snd_nxt_ = iss_ + 1;
  rtx_queue_.push_back(Unacked{iss_, syn});
  ++segments_sent_;
  host_.send_packet(std::move(syn));
  arm_rto();
}

void TcpConnection::send(Payload data) {
  assert(!fin_pending_ && !fin_sent_ && "send after close()");
  if (!data.empty()) {
    send_buffered_ += data.size();
    send_buffer_.push_back(std::move(data));
  }
  pump_send();
}

void TcpConnection::send(std::vector<std::uint8_t> data) {
  send(Payload{std::move(data)});
}

void TcpConnection::send(const std::string& data) { send(Payload{data}); }

Payload TcpConnection::dequeue_chunk(std::size_t take) {
  assert(take <= send_buffered_);
  send_buffered_ -= take;
  Payload& front = send_buffer_.front();
  if (take < front.size()) {
    // Partial consumption: the segment is a sub-view, the remainder stays
    // queued as a sub-view of the same buffer. No bytes move.
    Payload chunk = front.first(take);
    front.remove_prefix(take);
    return chunk;
  }
  if (take == front.size()) {
    Payload chunk = std::move(front);
    send_buffer_.pop_front();
    return chunk;
  }
  // The segment spans queued buffers (only possible when a window-limited
  // sender coalesces several small send() calls): gather-copy this one.
  std::vector<Payload> parts;
  std::size_t have = 0;
  while (have < take) {
    have += send_buffer_.front().size();
    parts.push_back(std::move(send_buffer_.front()));
    send_buffer_.pop_front();
  }
  Payload chunk = gather(parts.data(), parts.size(), 0, take);
  if (have > take) {
    // Re-queue the unconsumed tail of the last buffer as a view.
    send_buffer_.push_front(parts.back().skip(parts.back().size() - (have - take)));
  }
  return chunk;
}

void TcpConnection::pump_send() {
  BNM_PROF_SCOPE("tcp.segmentation");
  if (state_ != State::kEstablished && state_ != State::kCloseWait) {
    return;  // data flows once established; SYN queues it via send_buffer_
  }
  while (send_buffered_ > 0) {
    const std::uint32_t in_flight = snd_nxt_ - snd_una_;
    const std::size_t window = effective_window();
    if (in_flight >= window) break;  // wait for ACKs
    const std::size_t room = window - in_flight;
    const std::size_t take = std::min({config_.mss, send_buffered_, room});
    transmit_segment(dequeue_chunk(take), /*fin=*/false);
  }
  maybe_send_fin();
}

void TcpConnection::transmit_segment(Payload chunk, bool fin) {
  Packet seg;
  seg.protocol = Protocol::kTcp;
  seg.src = tuple_.local;
  seg.dst = tuple_.remote;
  seg.flags.ack = true;
  seg.flags.psh = !chunk.empty();
  seg.flags.fin = fin;
  seg.seq = snd_nxt_;
  seg.ack = rcv_nxt_;
  stamp_timestamps(seg);
  last_ack_sent_ = rcv_nxt_;
  seg.payload = std::move(chunk);
  snd_nxt_ += static_cast<std::uint32_t>(seg.payload.size()) + (fin ? 1 : 0);
  // The outgoing data/FIN acknowledges everything received so far, so any
  // pending delayed ACK is now redundant.
  delack_timer_.cancel();
  rtx_queue_.push_back(Unacked{seg.seq, seg});
  ++segments_sent_;
  host_.send_packet(std::move(seg));
  arm_rto();
}

void TcpConnection::send_control(TcpFlags flags, std::uint32_t seq) {
  Packet pkt;
  pkt.protocol = Protocol::kTcp;
  pkt.src = tuple_.local;
  pkt.dst = tuple_.remote;
  pkt.flags = flags;
  pkt.seq = seq;
  pkt.ack = flags.ack ? rcv_nxt_ : 0;
  stamp_timestamps(pkt);  // delayed ACKs reach here at fire time: fresh TSval
  if (flags.ack) last_ack_sent_ = rcv_nxt_;
  ++segments_sent_;
  host_.send_packet(std::move(pkt));
}

void TcpConnection::send_ack_now() {
  delack_timer_.cancel();
  send_control(TcpFlags{.ack = true}, snd_nxt_);
}

void TcpConnection::schedule_delayed_ack() {
  if (delack_timer_.pending()) return;
  delack_timer_ = host_.sim().scheduler().schedule_after(
      config_.delayed_ack, [self = shared_from_this()] {
        self->send_control(TcpFlags{.ack = true}, self->snd_nxt_);
      });
}

void TcpConnection::close() {
  if (state_ == State::kClosed || fin_pending_ || fin_sent_) return;
  fin_pending_ = true;
  maybe_send_fin();
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_ || send_buffered_ > 0) return;
  // A close() before the handshake completes (e.g. an acceptor that
  // rejects immediately) defers the FIN until ESTABLISHED; pump_send()
  // retries it then.
  if (state_ != State::kEstablished && state_ != State::kCloseWait) {
    return;
  }
  fin_sent_ = true;
  transmit_segment({}, /*fin=*/true);
  enter(state_ == State::kCloseWait ? State::kLastAck : State::kFinWait1);
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  send_control(TcpFlags{.ack = true, .rst = true}, snd_nxt_);
  cancel_rto();
  delack_timer_.cancel();
  enter(State::kClosed);
  deregister();
}

void TcpConnection::on_segment(const Packet& seg) {
  assert(seg.protocol == Protocol::kTcp);

  note_ts_recent(seg);  // no-op until timestamps negotiate

  if (seg.flags.rst) {
    if (state_ == State::kClosed) return;
    cancel_rto();
    delack_timer_.cancel();
    enter(State::kClosed);
    const auto cb = cbs_.on_reset;  // deregister() clears the callbacks
    deregister();
    if (cb) cb();
    return;
  }

  switch (state_) {
    case State::kClosed:
      return;  // late segment after teardown; host-level RST handles strays

    case State::kSynSent:
      if (seg.flags.syn && seg.flags.ack && seg.ack == iss_ + 1) {
        irs_ = seg.seq;
        rcv_nxt_ = seg.seq + 1;
        if (config_.timestamps && seg.ts.present) {
          // Peer echoed our offer on the SYN-ACK: timestamps are on.
          ts_ok_ = true;
          ts_recent_ = seg.ts.tsval;
          ts_recent_valid_ = true;
        }
        handle_ack(seg.ack);
        enter(State::kEstablished);
        send_ack_now();
        if (auto cb = cbs_.on_connect) cb();
        pump_send();  // flush data queued while connecting
      }
      return;

    case State::kSynRcvd:
      if (seg.flags.syn && !seg.flags.ack) {
        // First sight of the SYN (or a retransmit): record sequence and
        // send (or re-send) the SYN-ACK.
        if (rcv_nxt_ == 0) {
          irs_ = seg.seq;
          rcv_nxt_ = seg.seq + 1;
          snd_nxt_ = iss_ + 1;
          if (config_.timestamps && seg.ts.present) {
            // Accept the peer's RFC 7323 offer; the SYN-ACK echoes its TSval.
            ts_ok_ = true;
            ts_recent_ = seg.ts.tsval;
            ts_recent_valid_ = true;
          }
          Packet synack;
          synack.protocol = Protocol::kTcp;
          synack.src = tuple_.local;
          synack.dst = tuple_.remote;
          synack.flags.syn = true;
          synack.flags.ack = true;
          synack.seq = iss_;
          synack.ack = rcv_nxt_;
          stamp_timestamps(synack);
          last_ack_sent_ = rcv_nxt_;
          rtx_queue_.push_back(Unacked{iss_, synack});
          ++segments_sent_;
          host_.send_packet(std::move(synack));
          arm_rto();
        }
        return;
      }
      if (seg.flags.ack && seg.ack == iss_ + 1) {
        handle_ack(seg.ack);
        enter(State::kEstablished);
        if (auto cb = cbs_.on_connect) cb();
        if (seg.carries_data()) deliver_in_order(seg);
        pump_send();
      }
      return;

    case State::kEstablished:
    case State::kFinWait1:
    case State::kFinWait2:
    case State::kClosing:
      if (seg.flags.ack) handle_ack(seg.ack, seg.is_pure_ack());
      if (seg.carries_data()) deliver_in_order(seg);
      if (seg.flags.fin) {
        const std::uint32_t fin_seq =
            seg.seq + static_cast<std::uint32_t>(seg.payload.size());
        if (fin_seq == rcv_nxt_ && !fin_received_) {
          fin_received_ = true;
          rcv_nxt_ = fin_seq + 1;
          send_ack_now();
          if (state_ == State::kEstablished) {
            enter(State::kCloseWait);
          } else if (state_ == State::kFinWait1) {
            // Our FIN unacked yet: simultaneous close.
            enter(State::kClosing);
          } else if (state_ == State::kFinWait2) {
            enter(State::kTimeWait);
            host_.sim().scheduler().post_after(
                config_.time_wait, [self = shared_from_this()] {
                  self->enter(State::kClosed);
                  self->deregister();
                });
          }
          if (auto cb = cbs_.on_close) cb();
        } else if (fin_received_) {
          send_ack_now();  // retransmitted FIN
        }
      }
      return;

    case State::kCloseWait:
    case State::kLastAck:
      if (seg.flags.ack) handle_ack(seg.ack);
      if (seg.flags.fin) send_ack_now();  // peer retransmitted its FIN
      return;

    case State::kTimeWait:
      if (seg.flags.fin) send_ack_now();
      return;
  }
}

void TcpConnection::handle_ack(std::uint32_t ack, bool pure_ack) {
  if (!seq_lt(snd_una_, ack)) {
    // Duplicate ACK: the receiver saw a gap. Three in a row trigger a
    // fast retransmit (RFC 5681) without waiting for the RTO.
    if (pure_ack && ack == snd_una_ && !rtx_queue_.empty() &&
        snd_nxt_ != snd_una_) {
      ++dupacks_;
      if (dupacks_ == config_.dupack_threshold) {
        ++fast_retransmissions_;
        retransmit_first_unacked("fast retransmit");
        on_congestion_event();
      }
    }
    return;
  }
  if (seq_lt(snd_nxt_, ack)) return;  // acks data we never sent
  const std::uint32_t newly_acked = ack - snd_una_;
  snd_una_ = ack;
  dupacks_ = 0;
  consecutive_rtos_ = 0;  // forward progress
  // Window growth counts acked *data* only (established state), not the
  // SYN/FIN sequence bytes.
  if (config_.congestion_control && state_ == State::kEstablished) {
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(newly_acked);  // slow start: double/RTT
    } else {
      // Congestion avoidance: ~one MSS per RTT.
      cwnd_ += static_cast<double>(config_.mss) *
               static_cast<double>(newly_acked) / cwnd_;
    }
    cwnd_ = std::min(cwnd_, static_cast<double>(config_.send_window));
  }
  while (!rtx_queue_.empty()) {
    const Unacked& u = rtx_queue_.front();
    const std::uint32_t end =
        u.seq + static_cast<std::uint32_t>(u.packet.payload.size()) +
        (u.packet.flags.syn ? 1 : 0) + (u.packet.flags.fin ? 1 : 0);
    if (seq_leq(end, ack)) {
      rtx_queue_.pop_front();
    } else {
      break;
    }
  }
  if (rtx_queue_.empty()) {
    cancel_rto();
    rto_current_ = config_.rto_initial;
  } else {
    arm_rto();
  }

  // ACKs open send-window room: push more queued data.
  if (send_buffered_ > 0) pump_send();

  // ACK of our FIN advances teardown.
  if (fin_sent_ && snd_una_ == snd_nxt_) {
    if (state_ == State::kFinWait1) {
      enter(State::kFinWait2);
    } else if (state_ == State::kClosing) {
      enter(State::kTimeWait);
      host_.sim().scheduler().post_after(
          config_.time_wait, [self = shared_from_this()] {
            self->enter(State::kClosed);
            self->deregister();
          });
    } else if (state_ == State::kLastAck) {
      cancel_rto();
      enter(State::kClosed);
      deregister();
    }
  }
}

void TcpConnection::deliver_in_order(const Packet& seg) {
  if (seq_lt(seg.seq, rcv_nxt_)) {
    // Complete retransmission of old data (partial overlap is not modelled:
    // the sender never re-segments).
    send_ack_now();
    return;
  }
  if (seg.seq != rcv_nxt_) {
    reassembly_.emplace(seg.seq, seg.payload);
    send_ack_now();  // duplicate ACK signalling the gap
    return;
  }
  rcv_nxt_ += static_cast<std::uint32_t>(seg.payload.size());
  bytes_delivered_ += seg.payload.size();
  if (auto cb = cbs_.on_data) cb(seg.payload);
  // Drain contiguous out-of-order segments.
  auto it = reassembly_.find(rcv_nxt_);
  while (it != reassembly_.end()) {
    const auto payload = std::move(it->second);
    reassembly_.erase(it);
    rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
    bytes_delivered_ += payload.size();
    if (auto cb = cbs_.on_data) cb(payload);
    it = reassembly_.find(rcv_nxt_);
  }
  if (!reassembly_.empty()) {
    send_ack_now();
  } else {
    schedule_delayed_ack();
  }
}

void TcpConnection::arm_rto() {
  cancel_rto();
  rto_timer_ = host_.sim().scheduler().schedule_after(
      rto_current_, [self = shared_from_this()] { self->on_rto_fire(); });
}

void TcpConnection::cancel_rto() { rto_timer_.cancel(); }

void TcpConnection::on_rto_fire() {
  if (rtx_queue_.empty() || state_ == State::kClosed) return;
  ++consecutive_rtos_;
  if (consecutive_rtos_ > config_.max_retransmissions) {
    // Give up like a real stack: the peer is unreachable.
    if (host_.sim().trace().enabled()) {
      host_.sim().trace().emit(host_.sim().now(), "tcp/" + tuple_.to_string(),
                               "max retransmissions: giving up");
    }
    cancel_rto();
    delack_timer_.cancel();
    enter(State::kClosed);
    const auto cb = cbs_.on_reset;
    deregister();
    if (cb) cb();
    return;
  }
  retransmit_first_unacked("RTO retransmit");
  if (config_.congestion_control) {
    // RFC 5681 timeout response: multiplicative decrease + restart from
    // one segment.
    const double in_flight = static_cast<double>(snd_nxt_ - snd_una_);
    ssthresh_ =
        std::max(in_flight / 2.0, 2.0 * static_cast<double>(config_.mss));
    cwnd_ = static_cast<double>(config_.mss);
  }
  rto_current_ = std::min(rto_current_ * 2, config_.rto_max);
  arm_rto();
}

void TcpConnection::retransmit_first_unacked(const char* reason) {
  if (rtx_queue_.empty()) return;
  Packet again = rtx_queue_.front().packet;
  if (again.flags.ack) again.ack = rcv_nxt_;  // refresh cumulative ACK
  if (again.ts.present) {
    // RFC 7323: retransmissions carry the *current* clock, which is what
    // lets a timestamp-aware observer (or RTTM) disambiguate the echo —
    // and what a Karn-conservative passive estimator must still discard.
    again.ts.tsval = tsval_now();
    if (ts_ok_ && ts_recent_valid_) again.ts.tsecr = ts_recent_;
  }
  ++retransmissions_;
  if (host_.sim().trace().enabled()) {
    host_.sim().trace().emit(host_.sim().now(), "tcp/" + tuple_.to_string(),
                             std::string{reason} + " " + again.to_string());
  }
  host_.send_packet(std::move(again));
}

void TcpConnection::on_congestion_event() {
  if (!config_.congestion_control) return;
  const double in_flight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ =
      std::max(in_flight / 2.0, 2.0 * static_cast<double>(config_.mss));
  cwnd_ = ssthresh_;  // fast recovery, simplified
}

void TcpConnection::deregister() {
  // A closed connection delivers no further events; dropping the callbacks
  // here also breaks the common application cycle
  //   connection -> callbacks -> app state -> connection
  // so fully torn down connections actually free.
  cbs_ = {};
  host_.deregister_connection(tuple_);
}

}  // namespace bnm::net
