#include "rig.hpp"

#include <stdexcept>

#include "rtlsim/framing.hpp"

namespace perfbench {

IngestRig::IngestRig(const tp::core::TimestampEncoding& encoding)
    : enc_(&encoding),
      payload_bits_(tp::rtl::entry_payload_bits(encoding.m(), encoding.width())),
      // start + payload + stop bits must fit in one trace-cycle.
      divisor_(encoding.m() / (payload_bits_ + 2)),
      agg_(encoding),
      tx_(divisor_),
      rx_(divisor_, payload_bits_, [this] { return tx_.line(); }) {
  if (divisor_ == 0) {
    throw std::invalid_argument("IngestRig: trace-cycle shorter than one UART frame");
  }
  sim_.add(agg_);
  sim_.add(tx_);
  sim_.add(rx_);
}

void IngestRig::begin(tp::core::TraceChannel& channel) {
  sim_.reset();
  channel_ = &channel;
  frames_read_ = 0;
  bad_frames_ = 0;
  cycles_ = 0;
}

void IngestRig::clock(const std::vector<bool>& bits, std::size_t from, std::size_t to,
                      Tracer& tracer, std::uint64_t id) {
  {
    auto span = tracer.scope("rtlsim.step", id);
    for (std::size_t i = from; i < to; ++i) {
      agg_.set_change(bits[i]);
      sim_.step();
      if (agg_.entry_valid()) {
        tx_.send(tp::rtl::serialize_entry(agg_.entry(), enc_->m()));
      }
    }
    cycles_ += to - from;
    receive();
  }
  append(tracer, id);
}

void IngestRig::finish(Tracer& tracer, std::uint64_t id) {
  {
    auto span = tracer.scope("rtlsim.step", id);
    agg_.set_change(false);
    // The last frame left at the final trace-cycle boundary. Entries the
    // agg-log latches while the line idles are not sent.
    for (std::size_t guard = 0; tx_.busy() && guard < 2 * enc_->m(); ++guard) sim_.step();
    sim_.run(2 * divisor_);  // the receiver's stop-bit sample
    receive();
  }
  append(tracer, id);
}

void IngestRig::receive() {
  const auto& frames = rx_.frames();
  for (; frames_read_ < frames.size(); ++frames_read_) {
    try {
      received_.push_back(
          tp::rtl::deserialize_entry(frames[frames_read_], enc_->m(), enc_->width()));
    } catch (const std::runtime_error&) {
      ++bad_frames_;
    }
  }
}

void IngestRig::append(Tracer& tracer, std::uint64_t id) {
  auto span = tracer.scope("archive.append", id);
  for (tp::core::LogEntry& e : received_) channel_->append(std::move(e));
  received_.clear();
}

}  // namespace perfbench
