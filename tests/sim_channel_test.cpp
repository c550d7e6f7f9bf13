#include "sim/channel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

// Every global operator new of this test binary counts itself, so a test
// can count the allocations a stretch of simulation makes.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

// Out of line: inlined into their callers, the malloc/free pairs would
// draw gcc's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace edb::sim {
namespace {

// Records every delivered frame.
class RecordingSink : public FrameSink {
 public:
  void on_frame(const Frame& frame) override { frames.push_back(frame); }
  std::vector<Frame> frames;
};

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : channel_(scheduler_, /*comm_range=*/1.5) {}

  // Adds a node at (x, y); returns its index.
  int add(double x, double y) {
    const int id = static_cast<int>(radios_.size());
    radios_.push_back(std::make_unique<Radio>(net::RadioParams::cc2420()));
    sinks_.push_back(std::make_unique<RecordingSink>());
    channel_.add_node(id, x, y, radios_.back().get());
    channel_.set_sink(id, sinks_.back().get());
    return id;
  }

  void listen(int id) {
    radios_[id]->set_state(RadioState::kListen, scheduler_.now());
  }

  Frame data_frame(int src, int dst) {
    Frame f;
    f.type = FrameType::kData;
    f.src = src;
    f.dst = dst;
    f.bits = 384;
    f.packet = Packet{1, src, 0.0, 0};
    return f;
  }

  Scheduler scheduler_;
  Channel channel_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::unique_ptr<RecordingSink>> sinks_;
};

TEST_F(ChannelTest, DeliversToListeningNeighbour) {
  const int a = add(0, 0);
  const int b = add(1, 0);
  channel_.freeze();
  listen(b);
  channel_.transmit(a, data_frame(a, b), 0.001);
  scheduler_.run_until(1.0);
  ASSERT_EQ(sinks_[b]->frames.size(), 1u);
  EXPECT_EQ(sinks_[b]->frames[0].src, a);
}

TEST_F(ChannelTest, OutOfRangeNodeHearsNothing) {
  const int a = add(0, 0);
  const int far = add(10, 0);
  channel_.freeze();
  listen(far);
  channel_.transmit(a, data_frame(a, far), 0.001);
  scheduler_.run_until(1.0);
  EXPECT_TRUE(sinks_[far]->frames.empty());
}

TEST_F(ChannelTest, SleepingNodeMissesTheFrame) {
  const int a = add(0, 0);
  const int b = add(1, 0);
  channel_.freeze();
  // b's radio stays in kSleep.
  channel_.transmit(a, data_frame(a, b), 0.001);
  scheduler_.run_until(1.0);
  EXPECT_TRUE(sinks_[b]->frames.empty());
}

TEST_F(ChannelTest, WakingMidFrameMissesIt) {
  const int a = add(0, 0);
  const int b = add(1, 0);
  channel_.freeze();
  channel_.transmit(a, data_frame(a, b), 0.010);
  scheduler_.schedule_at(0.005, [&] { listen(b); });
  scheduler_.run_until(1.0);
  EXPECT_TRUE(sinks_[b]->frames.empty());
}

TEST_F(ChannelTest, SleepingMidFrameLosesIt) {
  const int a = add(0, 0);
  const int b = add(1, 0);
  channel_.freeze();
  listen(b);
  channel_.transmit(a, data_frame(a, b), 0.010);
  scheduler_.schedule_at(0.005, [&] {
    radios_[b]->set_state(RadioState::kSleep, scheduler_.now());
  });
  scheduler_.run_until(1.0);
  EXPECT_TRUE(sinks_[b]->frames.empty());
}

TEST_F(ChannelTest, OverlappingTransmissionsCollideAtTheReceiver) {
  const int a = add(0, 0);
  const int b = add(1, 0);
  const int c = add(2, 0);  // in range of b, not of a
  channel_.freeze();
  listen(b);
  channel_.transmit(a, data_frame(a, b), 0.010);
  scheduler_.schedule_at(0.002, [&] {
    channel_.transmit(c, data_frame(c, b), 0.010);
  });
  scheduler_.run_until(1.0);
  EXPECT_TRUE(sinks_[b]->frames.empty());
  EXPECT_GE(channel_.collisions(), 1u);
}

TEST_F(ChannelTest, HiddenTerminalOnlyHurtsTheSharedReceiver) {
  // a and c cannot hear each other; both reach b.  A fourth node d only in
  // range of c still receives c's frame.
  const int a = add(0, 0);
  const int b = add(1.2, 0);
  const int c = add(2.4, 0);
  const int d = add(3.4, 0);
  channel_.freeze();
  listen(b);
  listen(d);
  channel_.transmit(a, data_frame(a, b), 0.010);
  channel_.transmit(c, data_frame(c, d), 0.010);
  scheduler_.run_until(1.0);
  EXPECT_TRUE(sinks_[b]->frames.empty());   // collided at b
  ASSERT_EQ(sinks_[d]->frames.size(), 1u);  // clean at d
  EXPECT_EQ(sinks_[d]->frames[0].src, c);
}

TEST_F(ChannelTest, BusyNearReflectsActiveTransmissions) {
  const int a = add(0, 0);
  const int b = add(1, 0);
  const int far = add(10, 0);
  channel_.freeze();
  EXPECT_FALSE(channel_.busy_near(b));
  channel_.transmit(a, data_frame(a, b), 0.010);
  EXPECT_TRUE(channel_.busy_near(b));
  EXPECT_FALSE(channel_.busy_near(far));
  scheduler_.run_until(1.0);
  EXPECT_FALSE(channel_.busy_near(b));
}

TEST_F(ChannelTest, BroadcastReachesAllListeners) {
  const int a = add(0, 0);
  const int b = add(1, 0);
  const int c = add(0, 1);
  channel_.freeze();
  listen(b);
  listen(c);
  Frame f = data_frame(a, kBroadcast);
  f.type = FrameType::kCtrl;
  channel_.transmit(a, f, 0.001);
  scheduler_.run_until(1.0);
  EXPECT_EQ(sinks_[b]->frames.size(), 1u);
  EXPECT_EQ(sinks_[c]->frames.size(), 1u);
}

TEST_F(ChannelTest, NeighbourListsAreSymmetricAndRangeLimited) {
  const int a = add(0, 0);
  const int b = add(1, 0);
  const int far = add(5, 0);
  channel_.freeze();
  EXPECT_EQ(channel_.neighbours(a), (std::vector<int>{b}));
  EXPECT_EQ(channel_.neighbours(b), (std::vector<int>{a}));
  EXPECT_TRUE(channel_.neighbours(far).empty());
}

TEST_F(ChannelTest, FrameCountersAdvance) {
  const int a = add(0, 0);
  const int b = add(1, 0);
  channel_.freeze();
  listen(b);
  channel_.transmit(a, data_frame(a, b), 0.001);
  scheduler_.run_until(1.0);
  EXPECT_EQ(channel_.frames_sent(), 1u);
  EXPECT_EQ(channel_.collisions(), 0u);
}

// A frame in flight lives in the channel's flat record, and its finish
// event captures only the id: once the record vector and the scheduler's
// pool are warm, a frame costs no heap allocation, alone on the air or
// overlapping another.
TEST_F(ChannelTest, SteadyStateFramesDoNotAllocate) {
  const int a = add(0, 0);
  const int b = add(1, 0);
  channel_.freeze();
  listen(b);
  sinks_[b]->frames.reserve(4096);
  // Clean frames one at a time, then pairs that overlap and collide.
  const auto send = [&](int frames) {
    for (int i = 0; i < frames; ++i) {
      channel_.transmit(a, data_frame(a, b), 0.001);
      scheduler_.run_until(scheduler_.now() + 0.002);
    }
    for (int i = 0; i < frames; ++i) {
      channel_.transmit(a, data_frame(a, b), 0.003);
      scheduler_.run_until(scheduler_.now() + 0.002);
    }
    scheduler_.run_until(scheduler_.now() + 0.01);
  };
  send(100);  // warm-up
  const std::size_t delivered = sinks_[b]->frames.size();
  const std::size_t collisions = channel_.collisions();
  const long before = g_allocations.load();
  send(1000);
  const long allocations = g_allocations.load() - before;
  EXPECT_EQ(sinks_[b]->frames.size() - delivered, 1000u);
  EXPECT_GT(channel_.collisions(), collisions);
  EXPECT_EQ(allocations, 0) << "allocations over 2000 frames";
}

}  // namespace
}  // namespace edb::sim
