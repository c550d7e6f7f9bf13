#include "sim/lmac_sim.h"

namespace edb::sim {

LmacSim::LmacSim(MacEnv env, LmacSimParams params)
    : MacProtocol(std::move(env)), params_(params) {
  EDB_ASSERT(env_.info.lmac_slot >= 0 &&
                 env_.info.lmac_slot < params_.n_slots,
             "LMAC node has no valid slot assignment");
  EDB_ASSERT(params_.t_slot > radio_params().t_startup + ctrl_airtime() +
                                  data_airtime(),
             "LMAC slot too short for CM + data");
}

void LmacSim::start() {
  // Handlers fire t_startup *before* each nominal slot boundary so
  // listeners are settled when the owner's CM starts; slot 0's nominal
  // boundary is at t = t_startup, hence the first wake at t = 0.
  env_.scheduler->schedule_at(0.0, [this] { slot_boundary(0); });
}

void LmacSim::enqueue(const Packet& packet) { queue_.push_back(packet); }

void LmacSim::slot_boundary(int slot) {
  // Schedule the next slot's wake-up first (steady drumbeat).
  env_.scheduler->schedule_in(params_.t_slot, [this, slot] {
    slot_boundary((slot + 1) % params_.n_slots);
  });

  if (state_ != State::kAsleep) {
    // A data reception is still crossing the boundary (possible only for
    // maximal-length data in the previous slot); skip this slot's duty.
    return;
  }
  if (slot == env_.info.lmac_slot) {
    owner_slot();
  } else {
    listener_slot();
  }
}

void LmacSim::owner_slot() {
  // Radio warm-up at listen power until the nominal boundary, then the CM.
  state_ = State::kOwnerTx;
  env_.radio->set_state(RadioState::kListen, now());
  timer_ = env_.scheduler->schedule_in(radio_params().t_startup, [this] {
    env_.radio->set_state(RadioState::kTx, now());
    const bool has_data = !queue_.empty() && !env_.info.is_sink;
    send({.type = FrameType::kCtrl,
          .dst = kBroadcast,
          .bits = env_.packet.ctrl_bits(),
          .announced_data_dst = has_data ? env_.info.parent : kBroadcast},
         ctrl_airtime(), [this, has_data] {
           if (!has_data) {
             go_idle();
             return;
           }
           // CM then data back-to-back in the owned slot.
           send_head([this] {
             // TDMA is collision-free: transmission counts as delivered.
             finish_head(/*delivered=*/true);
             go_idle();
           });
         });
  });
}

void LmacSim::listener_slot() {
  state_ = State::kListenCtrl;
  env_.radio->set_state(RadioState::kListen, now());
  // If no CM materialises (unowned slot or owner out of range), give up
  // shortly after the CM would have ended.
  const double timeout =
      radio_params().t_startup + ctrl_airtime() + 2e-4;
  timer_ = env_.scheduler->schedule_in(timeout,
                                       [this] { ctrl_listen_timeout(); });
}

void LmacSim::ctrl_listen_timeout() {
  if (state_ != State::kListenCtrl) return;
  go_idle();
}

void LmacSim::go_idle() {
  state_ = State::kAsleep;
  env_.radio->set_state(RadioState::kSleep, now());
}

void LmacSim::on_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kCtrl: {
      if (state_ != State::kListenCtrl) return;
      timer_.cancel();
      if (frame.announced_data_dst == env_.info.id) {
        state_ = State::kAwaitData;
        const double timeout = data_airtime() + 1e-3;
        timer_ = env_.scheduler->schedule_in(timeout, [this] {
          if (state_ == State::kAwaitData) go_idle();
        });
      } else {
        go_idle();
      }
      return;
    }
    case FrameType::kData: {
      if (frame.dst != env_.info.id || state_ != State::kAwaitData) return;
      accept(frame);
      return;
    }
    default:
      return;
  }
}

}  // namespace edb::sim
