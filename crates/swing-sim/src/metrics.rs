//! Measurement records produced by swarm scenarios — everything needed
//! to regenerate the paper's tables and figures.

use swing_core::stats::{Reservoir, Summary};

/// Lifecycle timestamps of one sensed frame, all in microseconds of
/// simulation time. Stages that never happened (dropped / lost frames)
/// are `None`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameRecord {
    /// Source sequence number.
    pub seq: u64,
    /// When the source sensed the frame.
    pub created_us: u64,
    /// Worker index the frame was routed to.
    pub worker: Option<usize>,
    /// When the dispatcher handed it to the network (timestamp attached).
    pub dispatched_us: Option<u64>,
    /// When the last byte arrived at the worker.
    pub arrived_us: Option<u64>,
    /// When the worker began processing it.
    pub started_us: Option<u64>,
    /// When processing finished.
    pub finished_us: Option<u64>,
    /// When the result reached the sink.
    pub sink_us: Option<u64>,
    /// When the reorder buffer released it for playback.
    pub played_us: Option<u64>,
    /// Dropped at the source's sensing buffer (never dispatched).
    pub dropped: bool,
    /// Dispatched but never completed (device left / link broke).
    pub lost: bool,
    /// Times the frame was re-dispatched after its worker departed
    /// (only with `resend_orphans`).
    pub retries: u32,
}

impl FrameRecord {
    /// Network transmission delay, measured like the paper: from the
    /// socket write (dispatch) to arrival at the worker — in-flight
    /// window queueing plus airtime.
    #[must_use]
    pub fn transmission_us(&self) -> Option<u64> {
        Some(self.arrived_us?.saturating_sub(self.dispatched_us?))
    }

    /// Time spent waiting in the source's sensing buffer before dispatch
    /// (grows when the dispatcher is blocked by full windows).
    #[must_use]
    pub fn source_wait_us(&self) -> Option<u64> {
        Some(self.dispatched_us?.saturating_sub(self.created_us))
    }

    /// Wait in the worker's input queue ("Queuing" in Fig. 2).
    #[must_use]
    pub fn queuing_us(&self) -> Option<u64> {
        Some(self.started_us?.saturating_sub(self.arrived_us?))
    }

    /// Compute time at the worker ("Processing").
    #[must_use]
    pub fn processing_us(&self) -> Option<u64> {
        Some(self.finished_us?.saturating_sub(self.started_us?))
    }

    /// Sensor-to-sink latency of a completed frame.
    #[must_use]
    pub fn e2e_us(&self) -> Option<u64> {
        Some(self.sink_us?.saturating_sub(self.created_us))
    }

    /// Whether the frame made it to the sink.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.sink_us.is_some()
    }
}

/// Per-worker statistics over a whole run (drives Figs. 5 and 6).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Device name (testbed letter).
    pub name: String,
    /// Frames received by this worker.
    pub received: u64,
    /// Results this worker delivered to the sink.
    pub completed: u64,
    /// Mean input data rate, frames per second (Fig. 5 right panels).
    pub input_fps: f64,
    /// Mean total CPU utilization 0..=1 as `top` would report it,
    /// including background load (Fig. 5 left panels).
    pub cpu_util: f64,
    /// Mean app-attributable power, watts (Fig. 6 bars).
    pub cpu_power_w: f64,
    /// Mean Wi-Fi power, watts (Fig. 6 stacked component).
    pub wifi_power_w: f64,
    /// Bytes received over the air.
    pub bytes_rx: u64,
    /// Remaining battery fraction at the end of the run (0..=1; a dead
    /// worker reads 0, an infinite cloudlet pack reads 1).
    pub battery_frac: f64,
}

impl WorkerStats {
    /// Total app power (CPU + Wi-Fi), watts.
    #[must_use]
    pub fn power_w(&self) -> f64 {
        self.cpu_power_w + self.wifi_power_w
    }
}

/// One row of the per-second timeline (drives Figs. 9 and 10).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelinePoint {
    /// End of the window, seconds.
    pub t_s: f64,
    /// Frames completed in the window (system throughput, FPS).
    pub total_fps: f64,
    /// Per-worker completions in the window, FPS.
    pub per_worker_fps: Vec<f64>,
    /// Per-worker RSSI at the window end, dBm.
    pub per_worker_rssi: Vec<f64>,
}

/// Result of a swarm simulation run.
#[derive(Debug, Clone, Default)]
pub struct SwarmReport {
    /// Run length in seconds.
    pub duration_s: f64,
    /// Frames the source sensed.
    pub generated: u64,
    /// Frames dropped at the source's sensing buffer.
    pub dropped_at_source: u64,
    /// Frames dispatched but never completed.
    pub lost: u64,
    /// Frames whose results reached the sink.
    pub completed: u64,
    /// Mean system throughput, frames per second (Fig. 4 left).
    pub throughput_fps: f64,
    /// End-to-end latency summary in milliseconds (Fig. 4 right).
    pub latency_ms: Summary,
    /// Reservoir of latency samples (ms) for percentile reporting.
    pub latency_dist: Reservoir,
    /// Per-worker statistics in worker order.
    pub workers: Vec<WorkerStats>,
    /// Per-second timeline.
    pub timeline: Vec<TimelinePoint>,
    /// Per-frame records. In a multi-stage run the worker-side stamps
    /// are those of the last operator stage.
    pub frames: Vec<FrameRecord>,
    /// Frames the reorder buffer skipped at playback.
    pub reorder_skipped: u64,
    /// Workers whose battery drained to empty mid-run, as
    /// `(time_s, name)` in death order.
    pub battery_deaths: Vec<(f64, String)>,
    /// One-shot low-power threshold crossings, as `(time_s, name)`.
    pub low_power_events: Vec<(f64, String)>,
    /// Every permanent removal — battery cliff, scripted leave,
    /// mobility disconnect, broken link — as `(time_s, name)` in
    /// removal order. Battery deaths appear here too.
    pub departures: Vec<(f64, String)>,
    /// Mean time a tuple spent at each operator stage, mailbox wait plus
    /// service, as `(stage name, ms)` in pipeline order.
    pub stage_ms: Vec<(String, f64)>,
    /// The engine's own telemetry registry at the end of the run — the
    /// schema a live swarm exports (`swing_telemetry::to_json` renders
    /// it).
    pub telemetry: swing_telemetry::Snapshot,
}

impl SwarmReport {
    /// End-to-end latency percentile in milliseconds (0 if no frames
    /// completed). `p` in `[0, 1]`.
    #[must_use]
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        self.latency_dist.quantile(p).unwrap_or(0.0)
    }

    /// Seconds until the first battery death, or `None` when every
    /// worker's pack outlived the run.
    #[must_use]
    pub fn time_to_first_death_s(&self) -> Option<f64> {
        self.battery_deaths.first().map(|(t, _)| *t)
    }

    /// Seconds until at least half the swarm was permanently gone
    /// (any cause: battery cliff, scripted leave, mobility disconnect),
    /// or `None` when more than half the workers survived the run.
    #[must_use]
    pub fn time_to_half_swarm_s(&self) -> Option<f64> {
        let k = self.workers.len().div_ceil(2);
        if k == 0 {
            return None;
        }
        self.departures.get(k - 1).map(|(t, _)| *t)
    }

    /// Sum of mean app power across workers, watts — the aggregate the
    /// paper prints on top of each Fig. 6 group.
    #[must_use]
    pub fn aggregate_power_w(&self) -> f64 {
        self.workers.iter().map(WorkerStats::power_w).sum()
    }

    /// Energy-efficiency metric FPS/Watt (Fig. 7).
    #[must_use]
    pub fn fps_per_watt(&self) -> f64 {
        let p = self.aggregate_power_w();
        if p > 0.0 {
            self.throughput_fps / p
        } else {
            0.0
        }
    }

    /// Mean of a per-frame delay component over completed frames, in
    /// milliseconds. `f` picks the component.
    pub fn mean_component_ms<F>(&self, f: F) -> f64
    where
        F: Fn(&FrameRecord) -> Option<u64>,
    {
        let mut sum = 0.0;
        let mut n = 0u64;
        for fr in &self.frames {
            if let Some(v) = f(fr) {
                sum += v as f64;
                n += 1;
            }
        }
        if n > 0 {
            sum / n as f64 / 1_000.0
        } else {
            0.0
        }
    }

    /// Number of workers that did non-trivial work (received more than
    /// `threshold` frames) — how many devices a policy actually used.
    #[must_use]
    pub fn active_workers(&self, threshold: u64) -> usize {
        self.workers
            .iter()
            .filter(|w| w.received > threshold)
            .count()
    }

    /// Per-frame records as tab-separated values (with header), for
    /// plotting with external tools. Missing stages are empty cells.
    #[must_use]
    pub fn frames_tsv(&self) -> String {
        let mut out = String::from(
            "seq\tcreated_us\tworker\tdispatched_us\tarrived_us\tstarted_us\tfinished_us\tsink_us\tplayed_us\tdropped\tlost\tretries\n",
        );
        let cell = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
        for f in &self.frames {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                f.seq,
                f.created_us,
                f.worker.map(|w| w.to_string()).unwrap_or_default(),
                cell(f.dispatched_us),
                cell(f.arrived_us),
                cell(f.started_us),
                cell(f.finished_us),
                cell(f.sink_us),
                cell(f.played_us),
                f.dropped,
                f.lost,
                f.retries,
            ));
        }
        out
    }

    /// Per-worker statistics as tab-separated values (with header).
    #[must_use]
    pub fn workers_tsv(&self) -> String {
        let mut out = String::from(
            "worker\treceived\tcompleted\tinput_fps\tcpu_util\tcpu_power_w\twifi_power_w\tbytes_rx\tbattery_frac\n",
        );
        for w in &self.workers {
            out.push_str(&format!(
                "{}\t{}\t{}\t{:.3}\t{:.4}\t{:.4}\t{:.5}\t{}\t{:.4}\n",
                w.name,
                w.received,
                w.completed,
                w.input_fps,
                w.cpu_util,
                w.cpu_power_w,
                w.wifi_power_w,
                w.bytes_rx,
                w.battery_frac,
            ));
        }
        out
    }

    /// Per-second timeline as tab-separated values (with header):
    /// `t_s`, total FPS, then one FPS and one RSSI column per worker.
    #[must_use]
    pub fn timeline_tsv(&self) -> String {
        let mut out = String::from("t_s\ttotal_fps");
        for w in &self.workers {
            out.push_str(&format!("\t{}_fps\t{}_rssi", w.name, w.name));
        }
        out.push('\n');
        for p in &self.timeline {
            out.push_str(&format!("{:.0}\t{:.1}", p.t_s, p.total_fps));
            for (fps, rssi) in p.per_worker_fps.iter().zip(&p.per_worker_rssi) {
                out.push_str(&format!("\t{fps:.1}\t{rssi:.0}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed_frame() -> FrameRecord {
        FrameRecord {
            seq: 1,
            created_us: 1_000,
            worker: Some(0),
            dispatched_us: Some(2_000),
            arrived_us: Some(10_000),
            started_us: Some(15_000),
            finished_us: Some(95_000),
            sink_us: Some(100_000),
            played_us: Some(120_000),
            dropped: false,
            lost: false,
            retries: 0,
        }
    }

    #[test]
    fn frame_delay_components_add_up() {
        let f = completed_frame();
        assert_eq!(f.source_wait_us(), Some(1_000));
        assert_eq!(f.transmission_us(), Some(8_000));
        assert_eq!(f.queuing_us(), Some(5_000));
        assert_eq!(f.processing_us(), Some(80_000));
        assert_eq!(f.e2e_us(), Some(99_000));
        assert!(f.completed());
    }

    #[test]
    fn incomplete_frames_yield_none() {
        let f = FrameRecord {
            seq: 0,
            created_us: 5,
            ..FrameRecord::default()
        };
        assert_eq!(f.transmission_us(), None);
        assert_eq!(f.e2e_us(), None);
        assert!(!f.completed());
    }

    #[test]
    fn aggregate_power_sums_workers() {
        let mut r = SwarmReport::default();
        r.workers.push(WorkerStats {
            cpu_power_w: 0.5,
            wifi_power_w: 0.1,
            ..WorkerStats::default()
        });
        r.workers.push(WorkerStats {
            cpu_power_w: 0.25,
            wifi_power_w: 0.05,
            ..WorkerStats::default()
        });
        assert!((r.aggregate_power_w() - 0.9).abs() < 1e-12);
        r.throughput_fps = 18.0;
        assert!((r.fps_per_watt() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn fps_per_watt_handles_zero_power() {
        let r = SwarmReport::default();
        assert_eq!(r.fps_per_watt(), 0.0);
    }

    #[test]
    fn mean_component_averages_over_completed() {
        let mut r = SwarmReport::default();
        r.frames.push(completed_frame());
        let mut f2 = completed_frame();
        f2.started_us = Some(25_000); // queuing 15 ms
        r.frames.push(f2);
        r.frames.push(FrameRecord::default()); // incomplete, ignored
        let q = r.mean_component_ms(FrameRecord::queuing_us);
        assert!((q - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tsv_exports_are_rectangular() {
        let mut r = SwarmReport::default();
        r.frames.push(completed_frame());
        r.frames.push(FrameRecord {
            seq: 2,
            created_us: 9,
            dropped: true,
            ..FrameRecord::default()
        });
        r.workers.push(WorkerStats {
            name: "B".into(),
            received: 5,
            ..WorkerStats::default()
        });
        r.timeline.push(TimelinePoint {
            t_s: 1.0,
            total_fps: 10.0,
            per_worker_fps: vec![10.0],
            per_worker_rssi: vec![-28.0],
        });

        let frames = r.frames_tsv();
        let mut lines = frames.lines();
        let header_cols = lines.next().unwrap().split('\t').count();
        for line in lines {
            assert_eq!(line.split('\t').count(), header_cols, "ragged row: {line}");
        }
        assert!(frames.contains("\ttrue\t")); // the dropped flag

        let workers = r.workers_tsv();
        assert_eq!(workers.lines().count(), 2);
        assert!(workers.contains("B\t5\t"));

        let timeline = r.timeline_tsv();
        assert!(timeline.starts_with("t_s\ttotal_fps\tB_fps\tB_rssi"));
        assert!(timeline.contains("1\t10.0\t10.0\t-28"));
    }

    #[test]
    fn active_workers_counts_above_threshold() {
        let mut r = SwarmReport::default();
        for received in [0u64, 3, 500, 900] {
            r.workers.push(WorkerStats {
                received,
                ..WorkerStats::default()
            });
        }
        assert_eq!(r.active_workers(10), 2);
        assert_eq!(r.active_workers(0), 3);
    }
}
