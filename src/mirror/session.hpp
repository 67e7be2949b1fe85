// Mirroring session: the full remote-access pipeline (§3.2, §4.2).
//
//   browser viewer  ⇄  noVNC (6081)  ⇄  VNC  ⇄  scrcpy receive  ⇄  WiFi  ⇄
//   scrcpy server on the device
//
// Starting a session launches the device-side scrcpy server, registers the
// controller-side services (scrcpy receive, VNC, noVNC) whose CPU follows
// the mirrored content (Fig. 5), and wires the input path used both by
// humans in the browser and by the latency probe.
//
// Latency methodology (§4.2): the paper measures click→first-visual-change
// at 1.44 ± 0.12 s co-located. Here every network leg is carried by the
// simulated network, and each *processing* stage is an explicit, documented
// model constant in MirrorTimings.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "controller/controller.hpp"
#include "mirror/airplay.hpp"
#include "mirror/novnc.hpp"
#include "mirror/scrcpy.hpp"
#include "mirror/vnc.hpp"
#include "obs/span.hpp"
#include "util/result.hpp"

namespace blab::obs {
class Counter;
class Histogram;
}  // namespace blab::obs

namespace blab::mirror {

struct MirrorTimings {
  /// GUI backend: AJAX handling + event translation + control-socket queue.
  util::Duration input_processing = util::Duration::millis(180);
  /// App reacts to the tap and redraws (touch pipeline + render).
  util::Duration app_render = util::Duration::millis(380);
  /// Screen capture + H.264 encode of the changed frame.
  util::Duration capture_encode = util::Duration::millis(150);
  /// VNC framebuffer processing on the loaded Pi.
  util::Duration vnc_update = util::Duration::millis(290);
  /// Browser-side websocket decode + canvas render.
  util::Duration browser_render = util::Duration::millis(460);
  /// Relative sigma applied to each stage independently.
  double jitter_fraction = 0.15;
};

inline constexpr int kFrameSinkPort = 27200;

/// Sampling rate for per-frame spans: keep 1 in this many frame arrivals
/// per fast trace (weights keep the aggregates exact, see
/// Tracer::set_tail_sampling).
inline constexpr std::uint64_t kFrameSampling = 4;
/// Tail-sampling threshold for frame spans: a trace whose root runs at
/// least this long (sim time) keeps every frame span at full fidelity (see
/// Tracer::set_tail_sampling). Job roots in the DST corpus cluster at
/// 1-3 s; 5 s marks the slow tail (~p95).
inline constexpr std::int64_t kFrameTailThresholdUs = 5'000'000;

class MirroringSession {
 public:
  MirroringSession(controller::Controller& ctrl,
                   device::AndroidDevice& device, EncoderConfig encoder = {},
                   MirrorTimings timings = {});
  ~MirroringSession();
  MirroringSession(const MirroringSession&) = delete;
  MirroringSession& operator=(const MirroringSession&) = delete;

  util::Status start();
  void stop();
  bool active() const { return active_; }

  VncServer& vnc() { return vnc_; }
  NoVncGateway& novnc() { return *novnc_; }
  /// Android sessions stream via scrcpy; iOS sessions via AirPlay (§3.2).
  /// The accessor for the inactive platform returns nullptr.
  ScrcpyServer* scrcpy() { return scrcpy_.get(); }
  AirPlaySender* airplay() { return airplay_.get(); }
  bool is_ios() const;

  /// Viewer management (the experimenter's or tester's browser).
  util::Status attach_viewer(const net::Address& viewer);
  util::Status detach_viewer();

  /// Fire a remote tap from `viewer` and report the end-to-end latency from
  /// click to the frame showing the response being rendered in the browser.
  using LatencyCallback = std::function<void(util::Duration)>;
  void remote_tap(const net::Address& viewer, int x, int y,
                  LatencyCallback on_displayed);
  /// Synchronous helper: pumps the simulator until the probe completes.
  util::Result<util::Duration> measure_latency_sync(
      const net::Address& viewer, int x, int y,
      util::Duration timeout = util::Duration::seconds(30));

  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  void on_frame(const net::Message& msg);
  /// Instant, sampled "mirror/frame" span under the session span; one per
  /// frame arrival, paired 1:1 with the blab_mirror_frames_total increment.
  void note_frame_span(std::size_t bytes);
  void on_input(const std::string& command);
  util::Duration jittered(util::Duration mean);
  obs::Tracer& tracer();
  /// Context of an in-flight latency probe's span ({0,0} when unknown), so
  /// per-stage spans parent under their probe.
  obs::TraceContext probe_ctx(std::uint64_t probe_id);
  void finish_probe_span(std::uint64_t probe_id);

  controller::Controller& ctrl_;
  device::AndroidDevice& device_;
  EncoderConfig encoder_config_;
  MirrorTimings timings_;
  util::Rng rng_;

  VncServer vnc_;
  std::unique_ptr<NoVncGateway> novnc_;
  std::unique_ptr<ScrcpyServer> scrcpy_;
  std::unique_ptr<AirPlaySender> airplay_;
  net::Address sink_addr_;
  net::Address hid_addr_;  ///< iOS input path: HID events + acks
  bool active_ = false;
  std::uint64_t frames_received_ = 0;
  std::uint64_t bytes_received_ = 0;
  util::TimePoint started_at_;

  /// Registry instruments (ctrl_.simulator().metrics()), cached once.
  struct Metrics {
    obs::Counter* sessions_started = nullptr;
    obs::Counter* sessions_stopped = nullptr;
    obs::Counter* frames = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* session_seconds = nullptr;
  };
  Metrics metrics_;

  std::uint64_t next_probe_id_ = 1;
  /// Detached mirror/session span covering start() -> stop().
  std::uint64_t session_span_ = 0;
  /// In-flight latency probes: probe id -> detached mirror/probe span. The
  /// probe path hops across sim events (input -> device -> vnc -> browser),
  /// so each stage parents under this span via probe_ctx().
  std::map<std::uint64_t, std::uint64_t> probe_spans_;
};

}  // namespace blab::mirror
