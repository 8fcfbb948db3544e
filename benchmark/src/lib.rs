//! The host-cost benchmark of diablo-rs.
//!
//! Six workloads, each loading one layer of the program and bypassing
//! the others, measured two ways: a *timed pass* that runs full
//! iterations the way a user runs them and reports end-to-end metrics,
//! and a *layer pass* that stages the same work call by call from this
//! side of the public API and reports per-layer metrics. All times are
//! host wall time; the simulated chain's statistics are deterministic
//! and serve as correctness checks and exact counts, never as speed.
//!
//! The run protocol is closed-loop with one client: the next iteration
//! starts when the previous one has finished and been verified.

#![warn(missing_docs)]

pub mod alloc;
pub mod layers;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod verify;
pub mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use layers::Samples;
use spans::SpanLog;
use workloads::{Inputs, Product, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// How often each part of the protocol repeats. [`Protocol::FULL`] is
/// what the benchmark runs; the tests shorten it.
#[derive(Debug, Clone, Copy)]
pub struct Protocol {
    /// Set-ups per workload; `setup_s` is their median.
    pub setups: usize,
    /// Untimed warm-up iterations per set-up.
    pub warmups: usize,
    /// Timed slices per workload, round-robin across the workloads.
    pub rounds: usize,
    /// Staged iterations of the layer pass.
    pub staged: usize,
}

impl Protocol {
    /// The protocol of a real run.
    pub const FULL: Protocol = Protocol {
        setups: 3,
        warmups: 5,
        rounds: 4,
        staged: 5,
    };
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The selected workloads.
    pub workloads: Vec<&'static Workload>,
    /// Seed of the workloads' inputs.
    pub seed: u64,
    /// Seconds to measure per workload.
    pub seconds: f64,
    /// Whether to run the layer pass. With it, the timed pass takes
    /// half of `seconds` so a traced run costs about what an untraced
    /// one does.
    pub trace: bool,
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Everything measured on one workload.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: &'static Workload,
    /// Iterations run, warm-ups and staged ones included.
    pub attempted: u64,
    /// Iterations that errored or failed an output check.
    pub failed: u64,
    /// The first few failures, for the operator.
    pub errors: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; empty without the layer pass.
    pub per_layer: Vec<Metric>,
    /// Bench-side spans of the layer pass.
    pub spans: SpanLog,
}

/// The simulated outcome every later iteration must reproduce.
#[derive(Debug, Clone, Copy)]
struct Reference {
    fingerprint: u64,
    /// Hash of the emitted JSON and stats text, if the workload emits any.
    outputs: u64,
    committed: u64,
    dropped: u64,
    blocks: u64,
    latency_p50_us: f64,
}

struct State {
    workload: &'static Workload,
    inputs: Inputs,
    reference: Option<Reference>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    setup_s: Vec<f64>,
    run_ms: Vec<f64>,
    peak_heap: usize,
    alloc_calls: Vec<f64>,
    alloc_bytes: Vec<f64>,
}

fn outputs_hash(product: &Product) -> u64 {
    let hash = |text: &Option<String>| {
        text.as_ref()
            .map_or(0, |t| verify::hash_bytes(t.as_bytes()))
    };
    hash(&product.json) ^ hash(&product.stats).rotate_left(1)
}

impl State {
    fn new(workload: &'static Workload, seed: u64) -> State {
        State {
            workload,
            inputs: workload.inputs(seed),
            reference: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            setup_s: Vec::new(),
            run_ms: Vec::new(),
            peak_heap: 0,
            alloc_calls: Vec::new(),
            alloc_bytes: Vec::new(),
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    /// Checks one iteration's output: conservation and commit count,
    /// and equality with the first iteration (which also has its JSON
    /// re-parsed). `same_outputs` is off for staged iterations, whose
    /// JSON carries wall-clock span times.
    fn verify(&mut self, product: &Product, same_outputs: bool) -> Result<(), String> {
        let result = &product.result;
        verify::check(result, self.workload.planned, self.workload.commits)?;
        let fingerprint = verify::fingerprint(result);
        let outputs = outputs_hash(product);
        let Some(reference) = self.reference else {
            if let Some(json) = &product.json {
                verify::json_matches(json, result)?;
            }
            self.reference = Some(Reference {
                fingerprint,
                outputs,
                committed: result.committed(),
                dropped: verify::dropped(result),
                blocks: result.blocks.len() as u64,
                latency_p50_us: result.median_latency_secs() * 1e6,
            });
            return Ok(());
        };
        if fingerprint != reference.fingerprint {
            return Err(format!(
                "fingerprint {fingerprint:016x} differs from the first iteration's {:016x}",
                reference.fingerprint
            ));
        }
        if same_outputs && outputs != reference.outputs {
            return Err("emitted JSON or stats differ from the first iteration's".to_string());
        }
        Ok(())
    }

    /// Runs one full iteration; a verified one returns its wall time in
    /// milliseconds, a failed one is counted and returns nothing. A
    /// `counted` iteration runs with the allocator counting, which
    /// slows it: its time must not be used.
    fn iterate(&mut self, counted: bool) -> Option<f64> {
        self.attempted += 1;
        if counted {
            alloc::start();
        }
        let outcome = workloads::run_once(&self.inputs);
        if counted {
            let heap = alloc::stop();
            self.peak_heap = self.peak_heap.max(heap.peak);
            self.alloc_calls.push(heap.calls as f64);
            self.alloc_bytes.push(heap.bytes as f64);
        }
        let checked = outcome.and_then(|(ms, product)| self.verify(&product, true).map(|()| ms));
        checked.map_err(|error| self.fail(error)).ok()
    }

    /// One set-up: input generation plus the warm-up iterations
    /// (contract builds, lazy statics, allocator growth). Verification
    /// is the benchmark's own work and is not counted.
    fn set_up(&mut self, seed: u64, warmups: usize) {
        let start = Instant::now();
        self.inputs = self.workload.inputs(seed);
        let mut secs = start.elapsed().as_secs_f64();
        for _ in 0..warmups {
            secs += self.iterate(false).unwrap_or(0.0) / 1e3;
        }
        self.setup_s.push(secs);
    }

    /// One timed slice: an untimed warm-up, which is also the slice's
    /// heap-counted iteration, then timed iterations until the first
    /// iteration boundary after `budget`.
    fn slice(&mut self, budget: Duration) {
        self.iterate(true);
        let start = Instant::now();
        loop {
            if let Some(ms) = self.iterate(false) {
                self.run_ms.push(ms);
            }
            if start.elapsed() >= budget {
                break;
            }
        }
    }

    /// The layer pass: staged iterations on the wall-clocked telemetry
    /// clock, each followed by its replays.
    fn layer_pass(&mut self, staged: usize, log: &mut SpanLog, samples: &mut Samples) {
        let run_ms_p50 = stats::median(&self.run_ms);
        diablo_telemetry::clock::use_wall_clock();
        for it in 0..staged as u32 {
            self.attempted += 1;
            let outcome = workloads::run_staged(&self.inputs, it, log).and_then(|staged| {
                self.verify(&staged.product, false)?;
                if run_ms_p50 > 0.0 {
                    samples.add(
                        "bench.trace_overhead_ratio",
                        log.spans()[staged.iteration].ms() / run_ms_p50,
                    );
                }
                layers::sample(&staged, log, samples)
            });
            if let Err(error) = outcome {
                self.fail(error);
            }
        }
        diablo_telemetry::clock::use_sim_clock();
    }

    /// The end-to-end metrics. The iteration time reported is the lower
    /// quartile: interference from neighbours on a shared box only ever
    /// adds time, and over ten runs per workload the lower quartile
    /// repeated within 2-5% where the median repeated within 3-8%
    /// (README, "Steadiness").
    fn end_to_end(&self) -> Vec<Metric> {
        let run_ms_p25 = stats::quantile(&self.run_ms, 0.25);
        let tx_per_s = if run_ms_p25 > 0.0 {
            self.workload.planned as f64 / (run_ms_p25 / 1e3)
        } else {
            0.0
        };
        let values = [
            tx_per_s,
            run_ms_p25,
            self.peak_heap as f64 / 1e6,
            stats::median(&self.setup_s),
        ];
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    }

    fn per_layer(&self, mut samples: Samples) -> Vec<Metric> {
        samples.add("alloc.calls_per_run", stats::median(&self.alloc_calls));
        samples.add("alloc.bytes_per_run", stats::median(&self.alloc_bytes));
        samples.add("bench.run_ms_p50", stats::median(&self.run_ms));
        samples.add("bench.run_ms_p90", stats::quantile(&self.run_ms, 0.9));
        samples.add("bench.run_ms_min", stats::quantile(&self.run_ms, 0.0));
        samples.add("bench.iterations", self.run_ms.len() as f64);
        if let Some(reference) = self.reference {
            samples.add("sim.committed_txs", reference.committed as f64);
            samples.add("sim.dropped_txs", reference.dropped as f64);
            samples.add("sim.blocks", reference.blocks as f64);
            samples.add("sim.latency_p50_us", reference.latency_p50_us);
            let folded = (reference.fingerprint >> 32) ^ (reference.fingerprint & 0xffff_ffff);
            samples.add("sim.fingerprint32", folded as f64);
        }
        metrics::PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: samples.median(name),
            })
            .collect()
    }
}

/// Runs the benchmark: set-up, the timed pass in round-robin slices,
/// then (with `options.trace`) the layer pass.
pub fn run(options: &Options, protocol: &Protocol) -> Vec<Report> {
    let mut states: Vec<State> = options
        .workloads
        .iter()
        .map(|&workload| State::new(workload, options.seed))
        .collect();
    for state in &mut states {
        for _ in 0..protocol.setups {
            state.set_up(options.seed, protocol.warmups);
        }
    }

    // Slices of one workload are spread over the whole session: a burst
    // from a neighbour on a shared box then hits a slice of every
    // workload instead of one workload's whole window.
    let timed = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let budget = Duration::from_secs_f64(timed / protocol.rounds.max(1) as f64);
    for _ in 0..protocol.rounds {
        for state in &mut states {
            state.slice(budget);
        }
    }

    states
        .into_iter()
        .map(|mut state| {
            let mut spans = SpanLog::default();
            let per_layer = if options.trace {
                let mut samples = Samples::default();
                state.layer_pass(protocol.staged, &mut spans, &mut samples);
                state.per_layer(samples)
            } else {
                Vec::new()
            };
            Report {
                workload: state.workload,
                attempted: state.attempted,
                failed: state.failed,
                end_to_end: state.end_to_end(),
                errors: state.errors,
                per_layer,
                spans,
            }
        })
        .collect()
}

fn metrics_json(metrics: &[(String, &Metric)]) -> String {
    let mut out = String::from("{");
    for (i, (key, metric)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.value, metric.unit
        );
    }
    out.push('}');
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the pass `trace` selects — end-to-end without the layer pass,
/// per-layer with it. Metric keys carry a `workload/` prefix when more
/// than one workload ran.
pub fn result_line(reports: &[Report], trace: bool) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let metrics: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|report| {
            let set = if trace {
                &report.per_layer
            } else {
                &report.end_to_end
            };
            set.iter().map(move |metric| {
                let key = if reports.len() == 1 {
                    metric.name.to_string()
                } else {
                    format!("{}/{}", report.workload.name, metric.name)
                };
                (key, metric)
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        metrics_json(&metrics)
    )
}

/// Everything measured, keyed by workload, for `results.json`.
pub fn results_json(reports: &[Report], options: &Options) -> String {
    let mut out = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workloads\": {{",
        options.seed, options.seconds, options.trace
    );
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let named = |set: &[Metric]| -> String {
            let keyed: Vec<(String, &Metric)> =
                set.iter().map(|m| (m.name.to_string(), m)).collect();
            metrics_json(&keyed)
        };
        let _ = write!(
            out,
            "\n\"{}\": {{\"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            report.workload.name,
            report.attempted,
            report.failed,
            named(&report.end_to_end),
            named(&report.per_layer)
        );
    }
    out.push_str("\n}}\n");
    out
}
