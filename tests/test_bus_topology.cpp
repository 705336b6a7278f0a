// Bus-level topology tests: many-node arbitration chains, saturation
// behaviour and trace bookkeeping on larger networks.
#include <gtest/gtest.h>

#include <memory>

#include "can/bus.hpp"
#include "can/controller.hpp"
#include "can/periodic.hpp"
#include "sim/rng.hpp"

namespace mcan::can {
namespace {

using sim::BitTime;

TEST(BusTopology, TwentyNodeArbitrationResolvesStrictlyByPriority) {
  WiredAndBus bus;
  std::vector<std::unique_ptr<BitController>> nodes;
  std::vector<CanId> order;
  BitController obs{"obs"};
  obs.attach_to(bus);
  obs.set_rx_callback(
      [&](const CanFrame& f, BitTime) { order.push_back(f.id); });

  sim::Rng rng{99};
  std::vector<CanId> ids;
  while (ids.size() < 20) {
    const auto id = static_cast<CanId>(rng.uniform(0, kMaxStdId));
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ids.push_back(id);
    }
  }
  for (const auto id : ids) {
    auto n =
        std::make_unique<BitController>(std::string{"n"} += std::to_string(id));
    n->attach_to(bus);
    n->enqueue(CanFrame::make(id, {0x01}));
    nodes.push_back(std::move(n));
  }
  bus.run(20 * 150);

  // All 20 enqueued simultaneously: delivery order == strict ID order.
  ASSERT_EQ(order.size(), ids.size());
  auto sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(order, sorted);
  for (const auto& n : nodes) {
    EXPECT_EQ(n->tec(), 0) << n->name();
    EXPECT_EQ(n->stats().tx_errors, 0u) << n->name();
  }
}

TEST(BusTopology, SaturatedBusDropsNoFramesJustDelaysThem) {
  WiredAndBus bus{sim::BusSpeed{125'000}};
  std::vector<std::unique_ptr<BitController>> nodes;
  std::uint64_t delivered = 0;
  BitController obs{"obs"};
  obs.attach_to(bus);
  obs.set_rx_callback([&](const CanFrame&, BitTime) { ++delivered; });

  // Ten senders whose combined analytic load is > 100 %: the bus runs at
  // saturation but the protocol stays loss-free for queued frames.
  for (int i = 0; i < 10; ++i) {
    auto n =
        std::make_unique<BitController>(std::string{"n"} += std::to_string(i));
    n->attach_to(bus);
    attach_periodic(*n,
                    CanFrame::make_pattern(
                        static_cast<CanId>(0x100 + i * 0x10), 8, 0xAB),
                    900.0, 37.0 * i);
    nodes.push_back(std::move(n));
  }
  bus.run(50'000);
  std::uint64_t sent = 0;
  for (const auto& n : nodes) sent += n->stats().frames_sent;
  EXPECT_EQ(delivered, sent);
  EXPECT_GT(bus.trace().busy_fraction(0, bus.now()), 0.85);
  // Low-priority senders are delayed, not erred.
  for (const auto& n : nodes) EXPECT_EQ(n->stats().tx_errors, 0u);
}

TEST(BusTopology, TraceAnnotationsSurvive) {
  WiredAndBus bus;
  bus.trace().annotate(5, "marker");
  bus.run(10);
  ASSERT_EQ(bus.trace().annotations().size(), 1u);
  EXPECT_EQ(bus.trace().annotations()[0].text, "marker");
  EXPECT_EQ(bus.trace().size(), 10u);
}

TEST(BusTopology, RunMsMatchesSpeedConversion) {
  WiredAndBus bus{sim::BusSpeed{250'000}};
  bus.run_for(sim::Millis{4.0});
  EXPECT_EQ(bus.now(), 1000u);
}

TEST(BusTopology, LastLevelTracksBus) {
  WiredAndBus bus;
  BitController tx{"tx"};
  tx.attach_to(bus);
  bus.run(3);
  EXPECT_EQ(bus.last_level(), sim::BitLevel::Recessive);
  tx.enqueue(CanFrame::make(0x000, {}));
  bus.run(10);  // idle wait + decision bit
  bus.run(3);   // SOF + first ID bits are dominant for 0x000
  EXPECT_EQ(bus.last_level(), sim::BitLevel::Dominant);
}

}  // namespace
}  // namespace mcan::can
