#pragma once
// rig.hpp — the ingest path every workload shares.
//
// The traced change signal clocks the RTL agg-log unit; each entry it
// latches is framed onto the UART line, received, deserialized and
// appended to one TraceArchive channel — the deployment half of the
// paper's Figure 3. The UART runs at the slowest divisor whose line rate
// still carries one frame per trace-cycle, so the paper's constant-rate
// claim (no FIFO backlog) is exercised at its tightest point.
#include <cstdint>
#include <vector>

#include "rtlsim/agg_log.hpp"
#include "rtlsim/sim.hpp"
#include "rtlsim/uart.hpp"
#include "spans.hpp"
#include "timeprint/archive.hpp"
#include "timeprint/encoding.hpp"

namespace perfbench {

/// Cycles per span of the per-cycle layers.
inline constexpr std::size_t kBlockCycles = 4096;

class IngestRig {
 public:
  /// The encoding is the agg-log unit's timestamp ROM; it must outlive the
  /// rig.
  explicit IngestRig(const tp::core::TimestampEncoding& encoding);
  IngestRig(const IngestRig&) = delete;
  IngestRig& operator=(const IngestRig&) = delete;

  /// Reset the hardware and direct received entries into `channel` (which
  /// must outlive the ingest, up to finish()).
  void begin(tp::core::TraceChannel& channel);

  /// Clock change bits [from, to) of `bits` through agg-log and UART and
  /// deserialize the frames received ("rtlsim.step" span), then append
  /// them to the channel ("archive.append" span).
  void clock(const std::vector<bool>& bits, std::size_t from, std::size_t to,
             Tracer& tracer, std::uint64_t id);

  /// Idle the line until the last frame has arrived.
  void finish(Tracer& tracer, std::uint64_t id);

  /// Counters of the channel since begin().
  std::uint64_t cycles() const { return cycles_; }
  std::size_t framing_errors() const { return rx_.framing_errors() + bad_frames_; }
  std::size_t max_queue_depth() const { return tx_.max_queue_depth(); }

 private:
  void receive();
  void append(Tracer& tracer, std::uint64_t id);

  const tp::core::TimestampEncoding* enc_;
  std::size_t payload_bits_;
  std::size_t divisor_;
  tp::rtl::Simulator sim_;
  tp::rtl::AggLogUnit agg_;
  tp::rtl::UartTx tx_;
  tp::rtl::UartRx rx_;
  tp::core::TraceChannel* channel_ = nullptr;
  std::vector<tp::core::LogEntry> received_;
  std::size_t frames_read_ = 0;
  std::size_t bad_frames_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace perfbench
