// A complete, bit-level CAN 2.0A controller.
//
// This is the data-link layer a real ECU's (integrated) CAN controller
// implements: SOF detection and hard synchronization, bit-by-bit arbitration
// over the wired-AND bus, bit stuffing/destuffing, CRC-15 generation and
// checking, acknowledgement, active/passive error signalling, the error
// delimiter, intermission, suspend transmission for error-passive
// transmitters, automatic retransmission, and fault confinement with bus-off
// and recovery after 128 sequences of 11 recessive bits.
//
// Both legitimate ECUs and attackers are built from this class: the paper's
// threat model requires the attacker to go through a spec-compliant protocol
// controller, which is precisely what MichiCAN's counterattack exploits.
//
// Overload frames are implemented per ISO 11898-1: a dominant level during
// the first two intermission bits or at the last EOF bit triggers a
// six-dominant overload flag plus delimiter without touching the error
// counters (at most two consecutive overload frames; a dominant level at
// the third intermission bit is SOF).  Compliant nodes never create
// overload conditions themselves; fault injection can.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "can/bitstream.hpp"
#include "can/bus.hpp"
#include "can/fault.hpp"
#include "can/frame.hpp"
#include "can/node.hpp"
#include "sim/event_log.hpp"
#include "sim/types.hpp"

namespace mcan::can {

class BitController : public CanNode {
 public:
  struct Config {
    bool auto_retransmit{true};   // retransmit after errors/arbitration loss
    bool auto_recover{true};      // leave bus-off after 128 * 11 recessive
    bool ack_enabled{true};       // acknowledge valid frames
    bool clear_queue_on_bus_off{false};
    std::size_t tx_queue_capacity{64};
  };

  struct Stats {
    std::uint64_t frames_sent{};
    std::uint64_t frames_received{};
    std::uint64_t tx_errors{};
    std::uint64_t rx_errors{};
    std::uint64_t arbitration_losses{};
    std::uint64_t bus_off_entries{};
    std::uint64_t recoveries{};
    std::uint64_t dropped_frames{};  // enqueue on full queue
    std::uint64_t overload_frames{};
    /// Stuff bits in the wire encodings this controller started driving
    /// (counted per transmission attempt, so retransmissions count again —
    /// it measures bits actually put on the wire, not unique frames).
    std::uint64_t stuff_bits_tx{};
  };

  explicit BitController(std::string name);
  BitController(std::string name, Config cfg);

  /// Attach to a bus (registers the node and wires up the event log).
  void attach_to(WiredAndBus& bus);

  /// Wire up the event log only — used when this controller is embedded in
  /// a composite node (e.g. a MichiCAN ECU) that attaches to the bus itself.
  void set_event_sink(sim::EventLog* log) noexcept { log_ = log; }

  /// Tell the controller which bus it rides on without registering it as a
  /// node — the composite-node analogue of attach_to()'s back-pointer.  The
  /// pointer gates the hook cache (see add_app): companions' answers are
  /// only trusted when the bus runs the batch-window engine (fast path), so
  /// the naive tier stays a contract-free oracle.
  void set_bus(const WiredAndBus* bus) noexcept { bus_ = bus; }

  /// Queue a frame for transmission.  Returns false (and counts a drop)
  /// when the TX queue is full.
  bool enqueue(const CanFrame& frame);

  /// Application hook run once per bit time before bus arbitration;
  /// used by periodic senders and attack strategies.
  void add_app(std::function<void(sim::BitTime, BitController&)> app);

  /// Like add_app, with a scheduling companion: `next(now)` returns the
  /// earliest bit at which the hook may act (enqueue a frame, mutate
  /// state); kAlways, or any value <= now, means now.  Hooks registered
  /// without one opt the controller out of every batch window, so the
  /// engine steps it bit by bit.
  ///
  /// On the batch-window engine the controller asks the companion right
  /// after each run of the hook, caches the answer and skips the hook until
  /// that bit arrives.  Hence the contract:
  ///   - a finite answer may depend only on state the hook itself changes;
  ///   - an answer that waits on this controller (its TX queue draining,
  ///     bus-off starting or ending) must be kNever.  kNever parks the hook
  ///     until a frame leaves the TX queue or the controller enters or
  ///     leaves bus-off.  An enqueue wakes nothing: it can only postpone a
  ///     hook waiting for the queue to drain.
  /// A cached answer may turn out early, never late: running a hook early
  /// is harmless (the naive tier runs every hook on every bit), skipping a
  /// bit at which it would act is not.
  void add_app(std::function<void(sim::BitTime, BitController&)> app,
               std::function<sim::BitTime(sim::BitTime)> next);

  /// Called for every complete, valid frame received from the bus.
  void set_rx_callback(std::function<void(const CanFrame&, sim::BitTime)> cb);

  /// Called after each successful own transmission.
  void set_tx_callback(std::function<void(const CanFrame&, sim::BitTime)> cb);

  // --- queries ------------------------------------------------------------
  [[nodiscard]] ErrorState error_state() const noexcept {
    return fault_.state();
  }
  [[nodiscard]] int tec() const noexcept { return fault_.tec(); }
  [[nodiscard]] int rec() const noexcept { return fault_.rec(); }
  [[nodiscard]] bool is_bus_off() const noexcept {
    return phase_ == Phase::BusOff;
  }
  /// True while this controller is the active transmitter of the frame
  /// currently on the bus (it has won or is still in arbitration).
  [[nodiscard]] bool is_transmitting() const noexcept {
    return phase_ == Phase::Transmit;
  }
  [[nodiscard]] std::optional<CanId> active_tx_id() const noexcept;
  [[nodiscard]] std::size_t queue_depth() const noexcept { return txq_.size(); }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] sim::BitTime now() const noexcept { return now_; }

  /// Fault injection / test setup: force the error counters.
  void force_error_counters(int tec, int rec) { fault_.set_counters(tec, rec); }

  /// Register this controller's Stats plus TEC/REC high-water gauges into a
  /// metrics shard, every name prefixed "<prefix>." (harvest-time only).
  void export_metrics(obs::Registry& reg, std::string_view prefix) const;

  // --- CanNode ------------------------------------------------------------
  void tick(sim::BitTime now) override;
  [[nodiscard]] sim::BitLevel tx_level() override { return drive_; }
  void on_bus_bit(sim::BitLevel bus) override;
  [[nodiscard]] DrivePattern drive_pattern(sim::BitTime now) override;
  [[nodiscard]] sim::BitTime transparent_bits(sim::BitTime now,
                                              std::uint64_t word,
                                              sim::BitTime count) override;
  void on_bus_word(sim::BitTime now, std::uint64_t word,
                   sim::BitTime count) override;
  [[nodiscard]] std::string_view name() const override { return name_; }

 private:
  enum class Phase : std::uint8_t {
    Integrating,   // wait for 11 recessive bits before participating
    Idle,          // bus idle, may start transmitting
    Transmit,      // driving a frame (includes arbitration)
    Receive,       // sampling someone else's frame
    ActiveFlag,    // sending 6 dominant bits
    PassiveFlag,   // sending 6 recessive bits, waiting for 6 equal levels
    OverloadFlag,  // sending a 6-dominant overload flag (no error counted)
    ErrorDelim,    // waiting for / counting the 8-bit error/overload
                   // delimiter
    Intermission,  // 3-bit inter-frame space
    Suspend,       // 8-bit suspend window (error-passive transmitter)
    BusOff,
  };

  struct RxEngine {
    std::vector<std::uint8_t> bits;  // unstuffed values, SOF at index 0
    Destuffer destuff;
    int dlc{-1};  // parsed DLC code (clamped to 8), -1 until known
    // stuffed_region_length() for the parsed header, cached when the DLC
    // lands (stuffed_len() is consulted every received bit).
    int slen{kUnknownLen};
    bool rtr{false};
    bool ext{false};  // extended format, decided by the IDE bit
    bool crc_ok{false};

    static constexpr int kUnknownLen = 1 << 20;

    void reset();
    [[nodiscard]] int stuffed_len() const noexcept { return slen; }
    [[nodiscard]] CanFrame to_frame() const;
    /// Verify the CRC once the full stuffed region has been received.
    void check_crc();
  };

  void log_event(sim::EventKind kind, std::uint32_t id = 0, std::int64_t a = 0,
                 std::int64_t b = 0, std::string detail = {});

  void start_transmit_next_bit();
  void start_receive_with_sof();
  void feed_rx(sim::BitLevel bus);
  void accept_rx_frame();
  void handle_transmit_bit(sim::BitLevel bus);
  void complete_transmission();
  void lose_arbitration(sim::BitLevel current_bus);
  void begin_error(bool as_transmitter, ErrorType type, bool tec_exception);
  void begin_overload();
  void apply_error_counter_change(bool as_transmitter, ErrorType type,
                                  bool tec_exception);
  void enter_error_delim();
  void enter_intermission();
  void enter_bus_off();
  void after_intermission();
  void wake_parked_apps();
  void check_state_transition(ErrorState before);

  std::string name_;
  Config cfg_;
  sim::EventLog* log_{nullptr};
  const WiredAndBus* bus_{nullptr};
  sim::BitTime now_{0};

  Phase phase_{Phase::Integrating};
  sim::BitLevel drive_{sim::BitLevel::Recessive};
  FaultConfinement fault_;
  Stats stats_;

  std::deque<CanFrame> txq_;
  std::vector<TxBit> txbits_;
  // True while txbits_ is the wire image of txq_.front(); cleared whenever
  // the head frame changes so retries reuse the image instead of
  // regenerating it.  txbits_stuff_ counts the image's stuff bits (the
  // per-attempt stats contribution) so retries skip the recount walk.
  bool txbits_ready_{false};
  std::uint64_t txbits_stuff_{0};
  // Wire-image levels packed 64 per word (bit i = recessive flag of
  // txbits_[i]) plus the ACK-slot index: drive_pattern() extracts its
  // 64-bit promise with two shifts instead of a per-bit walk.
  std::vector<std::uint64_t> txlevels_;
  std::size_t tx_ack_pos_{0};
  std::size_t txpos_{0};
  sim::BitTime tx_start_{0};
  // Cache of the last Transmit-phase drive_pattern() promise: the bus
  // calls transparent_bits() with the same clock immediately after, so the
  // scan reduces to one XOR instead of a per-bit walk of txbits_.
  std::uint64_t batch_pattern_{0};
  sim::BitTime batch_pattern_at_{0};
  sim::BitTime batch_pattern_len_{0};

  RxEngine rx_;

  int integrate_count_{0};
  int flag_bits_left_{0};
  // passive flag tracking
  int passive_run_{0};
  sim::BitLevel passive_run_level_{sim::BitLevel::Recessive};
  bool passive_saw_dominant_{false};
  bool pending_ack_exception_{false};
  // error delimiter tracking
  bool delim_seen_recessive_{false};
  int delim_recessive_left_{0};
  int delim_dominant_run_{0};
  bool was_transmitter_{false};
  bool delim_after_overload_{false};
  int consecutive_overloads_{0};
  // intermission / suspend
  int intermission_left_{0};
  int suspend_left_{0};
  bool suspend_pending_{false};
  // bus-off recovery
  int busoff_recessive_run_{0};
  int busoff_idle_seqs_{0};

  /// Application hook plus its optional scheduling companion (it caps
  /// drive_pattern()'s horizon); a null `next` opts the whole controller
  /// out of batching.  `due` caches next(now) as of the hook's last run on
  /// the batch-window engine: 0 = due (never ran, no companion, naive tier),
  /// kNever = parked until wake_parked_apps().
  struct App {
    std::function<void(sim::BitTime, BitController&)> fn;
    std::function<sim::BitTime(sim::BitTime)> next;
    sim::BitTime due{0};
  };

  std::vector<App> apps_;
  // Hooks whose `due` is kNever: wake_parked_apps() is free while none is.
  std::size_t parked_{0};
  // min over apps_ of `due` as of the last tick (kNever with no hook, 0 after
  // add_app or a wake): while now < apps_due_ every hook is provably quiet,
  // so tick() and drive_pattern() reduce to one compare.
  sim::BitTime apps_due_{kNever};
  std::function<void(const CanFrame&, sim::BitTime)> rx_cb_;
  std::function<void(const CanFrame&, sim::BitTime)> tx_cb_;
};

}  // namespace mcan::can
