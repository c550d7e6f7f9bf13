// Frames on the air and application packets they carry.
#pragma once

#include <cstdint>
#include <optional>

namespace edb::sim {

inline constexpr int kBroadcast = -1;

// One application sample travelling to the sink.
struct Packet {
  std::uint64_t uid = 0;
  int origin = -1;        // node id of the source
  double generated_at = 0;
  int hops = 0;           // link transmissions so far
};

enum class FrameType {
  kData,
  kAck,
  kStrobe,   // X-MAC preamble strobe (addressed)
  kEarlyAck, // X-MAC strobe answer
  kCtrl,     // LMAC slot control message
  kSync,     // schedule sync beacon
};

struct Frame {
  FrameType type = FrameType::kData;
  int src = -1;
  int dst = kBroadcast;
  double bits = 0;

  // Payload for data frames.
  std::optional<Packet> packet = std::nullopt;
  // For LMAC control messages: the destination of the data that follows in
  // this slot (kBroadcast when the owner has nothing to send).
  int announced_data_dst = kBroadcast;
};

}  // namespace edb::sim
