//! `serve-zipf`: two callers drive one in-process `SolveService` with a
//! seeded Zipf-skewed stream over a `seeded_corpus`. The cache budget is
//! below the corpus's total reply bytes, so entries are evicted and
//! solved again. Every eighth request is drawn from the corpus items that
//! carry a rotation budget, which always bypass the cache lookup.
//!
//! The skew and budget put the median request on a cache hit and p90 on
//! a solve: a cache or wire change moves p50, a solver change p90.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rotsched_baselines::lower_bound;
use rotsched_core::objective::{code_size, static_registers};
use rotsched_core::wire::{cache_key_text, fingerprint_text, parse_problem};
use rotsched_dfg::rng::SplitMix64;
use rotsched_dfg::Retiming;
use rotsched_serve::{seeded_corpus, CounterSnapshot, ServeConfig, SolveService};

use crate::stats::{Metrics, Modes};
use crate::{KernelSums, Pass, Workload};

/// Distinct problems in the corpus.
const UNIQUE: usize = 2048;
/// Requests per pass; every pass replays the same stream.
const STREAM_LEN: usize = 8000;
/// Concurrent callers (the 2-CPU machine the sizes were tuned on).
const CALLERS: u32 = 2;
/// Zipf exponent of the popularity of cacheable items.
const ZIPF_EXPONENT: f64 = 1.2;
/// Cache byte budget as a share of the corpus's total reply bytes.
const CACHE_SHARE: f64 = 0.8;
/// `seeded_corpus` gives every eighth item a rotation budget, and the
/// stream sends one such request in every eight.
const BYPASS_EVERY: usize = 8;

pub struct ServeZipf {
    payloads: Vec<String>,
    bypass: Vec<bool>,
    references: Vec<String>,
    stream: Vec<u32>,
    bypass_in_stream: u64,
    service: SolveService,
    kernels: KernelSums,
    next_request: u64,
    /// Counter and eviction totals over the timed passes.
    timed: CounterSnapshot,
    timed_evictions: u64,
    timed_bypass: u64,
}

/// Reads the value of a top-level `"name": value` field of a reply.
fn field<'a>(reply: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": ");
    let rest = &reply[reply.find(&key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Kernel figures of one reference reply, recomputed from its retiming.
fn kernel_of(doc: &str, reply: &str, sums: &mut KernelSums) -> Result<(), String> {
    let spec = parse_problem(doc).map_err(|e| e.to_string())?;
    let number = |name: &str| -> Result<u64, String> {
        field(reply, name)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("reply has no `{name}`"))
    };
    let length = u32::try_from(number("length")?).map_err(|e| e.to_string())?;
    let rotations = number("rotations")?;
    let body = reply
        .split_once("\"retiming\": {")
        .and_then(|(_, rest)| rest.split_once('}'))
        .ok_or("reply has no retiming")?
        .0;
    let values = body
        .split(", ")
        .map(|entry| {
            entry
                .rsplit_once(": ")
                .and_then(|(_, v)| v.parse::<i64>().ok())
        })
        .collect::<Option<Vec<i64>>>()
        .ok_or("malformed retiming")?;
    if values.len() != spec.dfg.node_count() {
        return Err("retiming does not cover every node".into());
    }
    let retiming = Retiming::from_values(&spec.dfg, values);
    let lb = lower_bound(&spec.dfg, &spec.resources).map_err(|e| e.to_string())?;
    sums.add(
        length,
        static_registers(&spec.dfg, &retiming),
        code_size(&spec.dfg, &retiming),
        u64::from(length) == lb,
        rotations,
    );
    Ok(())
}

/// The request stream: cacheable items by a Zipf law over corpus order,
/// and one budget-carrying item in every [`BYPASS_EVERY`] requests,
/// uniformly.
///
/// Popularity follows corpus order, so the five paper benchmarks that
/// open every `seeded_corpus` are the most requested. A hit's cost grows
/// with its problem's size, and the few most popular items carry much of
/// the median; with a seeded popularity order, whichever graph drew rank
/// one moved p50 by a fifth between seeds.
fn stream(rng: &mut SplitMix64, bypass: &[bool]) -> Vec<u32> {
    let cacheable: Vec<u32> = (0..bypass.len() as u32)
        .filter(|&i| !bypass[i as usize])
        .collect();
    let budgeted: Vec<u32> = (0..bypass.len() as u32)
        .filter(|&i| bypass[i as usize])
        .collect();
    let mut cdf: Vec<f64> = Vec::with_capacity(cacheable.len());
    let mut total = 0.0;
    for rank in 0..cacheable.len() {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF_EXPONENT);
        cdf.push(total);
    }
    (0..STREAM_LEN)
        .map(|pos| {
            if pos % BYPASS_EVERY == BYPASS_EVERY - 1 {
                budgeted[rng.index(budgeted.len())]
            } else {
                let u = (rng.next_u64() >> 11) as f64 / (1_u64 << 53) as f64 * total;
                cacheable[cdf.partition_point(|&c| c <= u).min(cacheable.len() - 1)]
            }
        })
        .collect()
}

/// Solves every payload on a cache-less service, split over the callers.
fn reference_replies(payloads: &[String]) -> Vec<String> {
    let service = SolveService::new(ServeConfig {
        cache_bytes: 0,
        ..ServeConfig::default()
    });
    let mut replies = vec![String::new(); payloads.len()];
    let chunk = payloads.len().div_ceil(CALLERS as usize);
    std::thread::scope(|s| {
        for (out, input) in replies.chunks_mut(chunk).zip(payloads.chunks(chunk)) {
            let service = &service;
            s.spawn(move || {
                for (reply, payload) in out.iter_mut().zip(input) {
                    *reply = service.handle(payload).response().to_owned();
                }
            });
        }
    });
    replies
}

fn sub(a: CounterSnapshot, b: CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        requests: a.requests - b.requests,
        parse_errors: a.parse_errors - b.parse_errors,
        solve_errors: a.solve_errors - b.solve_errors,
        solver_invocations: a.solver_invocations - b.solver_invocations,
        cache_hits: a.cache_hits - b.cache_hits,
        cache_misses: a.cache_misses - b.cache_misses,
        coalesced: a.coalesced - b.coalesced,
        shed: a.shed - b.shed,
        faulted: a.faulted - b.faulted,
        cache_insert_drops: a.cache_insert_drops - b.cache_insert_drops,
    }
}

/// Adds the counters the mode report and the run's invariants read.
fn add(a: &mut CounterSnapshot, d: CounterSnapshot) {
    a.requests += d.requests;
    a.solver_invocations += d.solver_invocations;
    a.cache_hits += d.cache_hits;
    a.cache_misses += d.cache_misses;
    a.coalesced += d.coalesced;
    a.shed += d.shed;
    a.faulted += d.faulted;
}

/// The outcome bucket of one request, from the counter change across its
/// call. The other caller's events can land in the same window; a
/// request whose change fits no single bucket is left unclassified.
fn bucket(bypass: bool, d: CounterSnapshot) -> &'static str {
    if bypass {
        "serve.bypass_us"
    } else if d.solver_invocations == 0 && d.coalesced == 0 && d.cache_hits > 0 {
        "serve.hit_us"
    } else if d.coalesced > 0 {
        "serve.coalesced_us"
    } else if d.cache_misses > 0 && d.solver_invocations > 0 {
        "serve.solve_us"
    } else {
        "serve.unclassified_us"
    }
}

impl ServeZipf {
    fn caller(&self, next: &AtomicUsize, traced: bool, origin: Instant) -> Pass {
        let mut pass = Pass::new(traced, origin, CALLERS);
        let t = &mut pass.tracer;
        let mut latencies = Vec::with_capacity(STREAM_LEN / CALLERS as usize + 1);
        let (mut passed, mut rejected) = (0_u64, Vec::new());
        let mut failed = Vec::new();
        loop {
            let pos = next.fetch_add(1, Ordering::Relaxed);
            let Some(&item) = self.stream.get(pos) else {
                break;
            };
            let item = item as usize;
            let id = self.next_request + pos as u64;
            let root = t.open(id, "request", None);
            let before = t.enabled().then(|| self.service.counters());
            let span = t.open(id, "serve.handle_us", root);
            let start = Instant::now();
            let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.service.handle(&self.payloads[item])
            }));
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            t.close(span);
            if let Some(before) = before {
                t.rename(
                    span,
                    bucket(self.bypass[item], sub(self.service.counters(), before)),
                );
                let problem = self.payloads[item]
                    .strip_prefix("solve\n")
                    .unwrap_or_default();
                let fingerprint = t.time(id, "core.wire_us", root, || {
                    parse_problem(problem).map(|spec| fingerprint_text(&cache_key_text(&spec)))
                });
                std::hint::black_box(fingerprint.ok());
            }
            t.close(root);
            match reply {
                Err(_) => failed.push(format!("item {item}: handle panicked")),
                Ok(handled) => {
                    let reply = handled.response();
                    if matches!(field(reply, "status"), Some("shed" | "faulted" | "error")) {
                        failed.push(format!("item {item}: {reply}"));
                    } else {
                        latencies.push(ns);
                        if reply == self.references[item] {
                            passed += 1;
                        } else {
                            rejected.push(format!(
                                "item {item}: reply differs from the cache-less reference"
                            ));
                        }
                    }
                }
            }
        }
        pass.latencies_ns = latencies;
        pass.passed = passed;
        for e in failed {
            pass.fail(e);
        }
        for e in rejected {
            pass.reject(e);
        }
        pass
    }

    /// Replays the stream once on both callers; returns the merged pass
    /// and the counter change it caused.
    fn replay(&self, traced: bool, origin: Instant) -> (Pass, CounterSnapshot, u64) {
        let before = self.service.counters();
        let evicted = self.service.cache_report().evictions;
        let next = AtomicUsize::new(0);
        let passes: Vec<Pass> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| s.spawn(|| self.caller(&next, traced, origin)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller threads catch request panics"))
                .collect()
        });
        let mut merged = Pass::new(traced, origin, CALLERS);
        for p in passes {
            merged.merge(p);
        }
        let delta = sub(self.service.counters(), before);
        (
            merged,
            delta,
            self.service.cache_report().evictions - evicted,
        )
    }
}

impl Workload for ServeZipf {
    fn setup(seed: u64) -> Result<Self, String> {
        let docs = seeded_corpus(seed, UNIQUE);
        let bypass: Vec<bool> = (0..docs.len())
            .map(|i| i % BYPASS_EVERY == BYPASS_EVERY - 1)
            .collect();
        let payloads: Vec<String> = docs.iter().map(|d| format!("solve\n{d}")).collect();
        let references = reference_replies(&payloads);
        let mut kernels = KernelSums::default();
        for (i, (doc, reply)) in docs.iter().zip(&references).enumerate() {
            if field(reply, "status") != Some("ok") {
                return Err(format!("item {i}: reference reply is not ok: {reply}"));
            }
            kernel_of(doc, reply, &mut kernels).map_err(|e| format!("item {i}: {e}"))?;
        }
        let total_bytes: usize = references.iter().map(String::len).sum();
        let mut rng = SplitMix64::new(seed ^ 0x5eed_2195);
        let stream = stream(&mut rng, &bypass);
        let bypass_in_stream = stream.iter().filter(|&&i| bypass[i as usize]).count() as u64;
        let service = SolveService::new(ServeConfig {
            cache_bytes: (total_bytes as f64 * CACHE_SHARE) as usize,
            ..ServeConfig::default()
        });
        let mut w = ServeZipf {
            payloads,
            bypass,
            references,
            stream,
            bypass_in_stream,
            service,
            kernels,
            next_request: 0,
            timed: CounterSnapshot::default(),
            timed_evictions: 0,
            timed_bypass: 0,
        };
        // The untimed warm-up pass fills the cache to its steady state.
        let (warm, _, _) = w.replay(false, Instant::now());
        if let Some(e) = warm.errors.first() {
            return Err(format!("warm-up: {e}"));
        }
        w.next_request = STREAM_LEN as u64;
        Ok(w)
    }

    fn pass(&mut self, traced: bool, origin: Instant) -> Pass {
        let (pass, delta, evictions) = self.replay(traced, origin);
        add(&mut self.timed, delta);
        self.timed_evictions += evictions;
        self.timed_bypass += self.bypass_in_stream;
        self.next_request += STREAM_LEN as u64;
        pass
    }

    fn kernels(&self) -> KernelSums {
        self.kernels
    }

    fn modes(&self, _sorted_ns: &[u64]) -> Option<Modes> {
        let c = self.timed;
        let n = c.requests.max(1) as f64;
        let hit = c.cache_hits as f64 / n;
        let coalesced = c.coalesced as f64 / n;
        let solve = c.cache_misses as f64 / n;
        let bypass = self.timed_bypass as f64 / n;
        Some(Modes {
            shares: vec![
                ("hit", hit),
                ("coalesced", coalesced),
                ("solve", solve),
                ("bypass", bypass),
            ],
            // Hits are the only cheap mode; the rest wait for a solve.
            boundaries: vec![hit],
        })
    }

    fn layer_counters(&mut self, metrics: &mut Metrics) {
        let c = self.timed;
        let n = c.requests.max(1) as f64;
        metrics.put("serve.hit_share", c.cache_hits as f64 / n, "ratio");
        metrics.put("serve.coalesced_share", c.coalesced as f64 / n, "ratio");
        metrics.put("serve.bypass_share", self.timed_bypass as f64 / n, "ratio");
        metrics.put(
            "serve.solver_invocations",
            c.solver_invocations as f64,
            "count",
        );
        metrics.put("serve.evictions", self.timed_evictions as f64, "count");
    }

    fn finish(&mut self) -> Result<(), String> {
        let c = self.service.counters();
        if c.cache_hits + c.coalesced + c.solver_invocations + c.shed + c.faulted != c.requests {
            return Err(format!(
                "terminal buckets do not add up to the requests: {c:?}"
            ));
        }
        if c.parse_errors + c.solve_errors != 0 || self.service.in_flight_keys() != 0 {
            return Err(format!("errors or wedged keys after the run: {c:?}"));
        }
        let t = self.timed;
        if t.solver_invocations - t.cache_misses != self.timed_bypass {
            return Err(format!(
                "{} budget-carrying requests sent but {} solved without a cache probe",
                self.timed_bypass,
                t.solver_invocations - t.cache_misses
            ));
        }
        Ok(())
    }
}
