//! The two phases of a workload: `measure` (socket to socket, spans off,
//! end-to-end metrics) and `trace` (the per-layer budget).

use crate::measure::{median, percentile, proc_status, run_tcp, sorted_latencies, Sample, TcpPass};
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::stream::{generate, sweep, Kind, Req, Stream, Workload};
use crate::sut::{build_base, build_sdk, dir_bytes, Scratch, Sut, FLUSH_POLICY};
use crate::trace::{budget, median_us, replay, self_time_by_name, span_median_ns, Replayed};
use cogsdk::rdf::{DurableOptions, DurableStore, Statement, Term};
use cogsdk::sdk::gateway::{parse_request, HttpGateway};
use std::path::PathBuf;
use std::time::Instant;

/// Full-size base data: 100 000 items, 200 000 triples.
pub const ITEMS: usize = 100_000;
/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Consecutive blocks a measured pass is cut into.
const BLOCKS: usize = 5;

pub struct Config {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// `--quick`: base data and sweep ÷ 20.
    pub quick: bool,
    /// Where to write the span file, if anywhere.
    pub out: Option<PathBuf>,
}

impl Config {
    fn items(&self) -> usize {
        if self.quick {
            ITEMS / 20
        } else {
            ITEMS
        }
    }
}

fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `name value unit`, with the sample count where there is one.
fn print_metric(name: &str, value: f64, note: &str) {
    println!(
        "{name:<40} {value:>16.4} {:<8} {note}",
        crate::report::unit_of(name)
    );
}

fn finish(
    metrics: Vec<(&'static str, f64)>,
    expected: impl Iterator<Item = &'static str>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
) -> Outcome {
    let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
    assert_eq!(
        names,
        expected.collect::<Vec<_>>(),
        "metric table and run disagree"
    );
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    Outcome {
        correct: problems.is_empty() && failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
    }
}

/// Checks common to both phases on one socket pass.
fn pass_problems(pass: &TcpPass, stream: &Stream, problems: &mut Vec<String>) {
    problems.extend(pass.errors.iter().cloned());
    let sent_docs: u64 = stream
        .clients
        .iter()
        .zip(&pass.clients)
        .flat_map(|(reqs, samples)| reqs.iter().take(samples.len()))
        .map(|r| r.docs as u64)
        .sum();
    if pass.checks.docs_acked != sent_docs {
        problems.push(format!(
            "{} documents acknowledged, {sent_docs} sent",
            pass.checks.docs_acked
        ));
    }
    if pass.statements_delta != pass.checks.statements_acked as i64 {
        problems.push(format!(
            "store grew by {} statements, ingest responses reported {}",
            pass.statements_delta, pass.checks.statements_acked
        ));
    }
    if pass.attempted() < stream.len() {
        println!(
            "note: stopped after {} of {} requests ({}x --seconds elapsed)",
            pass.attempted(),
            stream.len(),
            crate::measure::OVERRUN_FACTOR
        );
    }
}

/// Socket to socket with the benchmark's spans off.
pub fn measure(cfg: &Config) -> Outcome {
    let scratch = Scratch::new().expect("scratch directory");
    let items = cfg.items();
    println!(
        "workload {} seed {} seconds {} items {items} | telemetry on | flush: {FLUSH_POLICY}",
        cfg.workload.name, cfg.seed, cfg.seconds
    );

    // Set-up: load the base, snapshot, close, recover, wire the gateway,
    // generate the stream. The first is measured on, so that VmHWM is a
    // fresh process's; the repeats that steady `setup_s` come after it.
    let set_up = |i: usize| {
        let started = Instant::now();
        let dir = scratch.dir(&format!("store-{i}"));
        build_base(&dir, cfg.seed, items);
        let sut = Sut::open(dir, cfg.seed);
        let stream = generate(cfg.workload, cfg.seed, cfg.seconds, items);
        (started.elapsed().as_secs_f64(), sut, stream)
    };
    let (first_setup_s, sut, stream) = set_up(0);
    let mut setups = vec![first_setup_s];

    let pass = run_tcp(&sut, &stream, items, cfg.seconds);
    let rss_peak_mb = proc_status("VmHWM") as f64 / (1024.0 * 1024.0);

    // The users' view: client 0 (the only client of a closed loop, the
    // readers of the open one). A failed request has no latency.
    let primary = &pass.clients[0];
    let latencies = sorted_latencies(primary.iter().filter(|s| s.ok).map(|s| s.latency_ns));
    let mut problems = Vec::new();
    pass_problems(&pass, &stream, &mut problems);
    if latencies.is_empty() {
        problems.push("no request succeeded".to_string());
        return finish(
            Vec::new(),
            std::iter::empty(),
            pass.attempted(),
            pass.failed(),
            problems,
        );
    }
    // Every timing is the median over BLOCKS consecutive blocks of the
    // block's own value: a machine stall of a second or two then moves one
    // block and not the result.
    let ok: Vec<&Sample> = primary.iter().filter(|s| s.ok).collect();
    let blocks: Vec<Vec<u64>> = ok
        .chunks(ok.len().div_ceil(BLOCKS))
        .map(|block| sorted_latencies(block.iter().map(|s| s.latency_ns)))
        .collect();
    let over_blocks = |f: &dyn Fn(&[u64]) -> f64| {
        let values: Vec<f64> = blocks.iter().map(|block| f(block)).collect();
        median(&values)
    };
    let open_loop = stream.clients[0][0].due_ns.is_some();
    let throughput = if open_loop {
        // Achieved against offered rate: an open loop that cannot keep up
        // builds a backlog instead of slowing its users down.
        let span_s = |f: fn(&Sample) -> u64| primary.iter().map(f).max().unwrap_or(1) as f64 / 1e9;
        let achieved = latencies.len() as f64 / span_s(|s| s.done_ns);
        let offered = primary.len() as f64 / span_s(|s| s.due_ns);
        if achieved < 0.98 * offered {
            problems.push(format!(
                "achieved read rate {achieved:.1}/s is below 98% of the offered {offered:.1}/s"
            ));
        }
        achieved
    } else {
        // One client, no think time: completed per second of waiting on
        // the server. The client's own checking between requests is the
        // benchmark's cost, not the system's.
        over_blocks(&|block| block.len() as f64 / (block.iter().sum::<u64>() as f64 / 1e9))
    };

    if let Err(e) = sut.close_and_verify_recovery() {
        problems.push(e);
    }
    for i in 1..SETUP_REPEATS {
        setups.push(set_up(i).0);
    }

    let setup_s = median(&setups);
    let n = latencies.len();
    let smallest = blocks.iter().map(Vec::len).min().unwrap_or(0);
    let mut metrics = vec![("setup_s", setup_s), ("throughput_rps", throughput)];
    print_metric(
        "setup_s",
        setup_s,
        &format!("median of {SETUP_REPEATS} set-ups"),
    );
    print_metric("throughput_rps", throughput, &format!("n={n}"));
    for (name, p) in [("latency_p50_us", 0.50), ("latency_p90_us", 0.90)] {
        let value = over_blocks(&|block| ns_to_us(percentile(block, p).0));
        let beyond = smallest - ((p * smallest as f64).ceil() as usize).min(smallest);
        print_metric(
            name,
            value,
            &format!(
                "median of {} blocks of >={smallest}, >={beyond} samples beyond in each",
                blocks.len()
            ),
        );
        metrics.push((name, value));
    }
    print_metric("rss_peak_mb", rss_peak_mb, "VmHWM after the socket pass");
    metrics.push(("rss_peak_mb", rss_peak_mb));
    let per_block: Vec<String> = blocks
        .iter()
        .map(|block| format!("{:.1}", ns_to_us(percentile(block, 0.5).0)))
        .collect();
    println!("p50 block by block (us): {}", per_block.join(" "));

    println!("not gated:");
    let (p99, beyond) = percentile(&latencies, 0.99);
    println!(
        "  latency_p99_us {:.3} us (whole pass, n={n}, {beyond} samples beyond)",
        ns_to_us(p99)
    );
    println!(
        "  failed_share {} ({} failed of {} attempted)",
        pass.failed() as f64 / pass.attempted().max(1) as f64,
        pass.failed(),
        pass.attempted()
    );
    if pass.checks.docs_acked > 0 {
        println!(
            "  docs_per_s {:.1} docs/s ({} documents acknowledged in {:.2} s)",
            pass.checks.docs_acked as f64 / pass.wall_s,
            pass.checks.docs_acked,
            pass.wall_s
        );
    }
    println!("by request kind (whole pass, us):");
    for kind in Kind::ALL {
        let of_kind = sorted_latencies(
            pass.clients
                .iter()
                .flatten()
                .filter(|s| s.ok && s.kind == kind)
                .map(|s| s.latency_ns),
        );
        if !of_kind.is_empty() {
            println!(
                "  {:<18} n={:<6} p50={:<10.1} p90={:<10.1} p99={:.1}",
                kind.label(),
                of_kind.len(),
                ns_to_us(percentile(&of_kind, 0.5).0),
                ns_to_us(percentile(&of_kind, 0.9).0),
                ns_to_us(percentile(&of_kind, 0.99).0)
            );
        }
    }
    finish(
        metrics,
        END_TO_END.iter().map(|m| m.name),
        pass.attempted(),
        pass.failed(),
        problems,
    )
}

/// Median of 50 `insert_batch` calls of 2 048 synthetic statements into a
/// RealFs store holding the base, in µs per 1 000 statements.
fn insert_batch_probe(dir: PathBuf) -> f64 {
    let mut store =
        DurableStore::open_dir(dir, DurableOptions::default()).expect("open the probe store");
    let predicate = Term::iri("kb:probe");
    let per_batch: Vec<f64> = (0..50)
        .map(|batch| {
            let statements: Vec<Statement> = (0..2_048)
                .map(|i| {
                    Statement::new(
                        Term::iri(format!("kb:probe_{batch}_{i}")),
                        predicate.clone(),
                        Term::integer(i),
                    )
                })
                .collect();
            let started = Instant::now();
            let added = store.insert_batch(statements).expect("probe batch commits");
            let us = started.elapsed().as_secs_f64() * 1e6;
            assert_eq!(added, 2_048);
            us / 2.048
        })
        .collect();
    median(&per_batch)
}

fn service_ns(s: &Sample) -> u64 {
    s.done_ns - s.sent_ns
}

/// Ingest requests slower than 4× their pass's median: merge and rebuild
/// spikes. Returns how many, and the slowest ingest in ms.
fn stalls(pass: &TcpPass) -> (usize, f64) {
    let ingests = sorted_latencies(
        pass.clients
            .iter()
            .flatten()
            .filter(|s| s.kind == Kind::Ingest)
            .map(service_ns),
    );
    let Some(&slowest) = ingests.last() else {
        return (0, 0.0);
    };
    let limit = 4 * percentile(&ingests, 0.5).0;
    (
        ingests.iter().filter(|&&ns| ns > limit).count(),
        slowest as f64 / 1e6,
    )
}

/// The per-layer budget: a socket pass, then the single-threaded traced
/// replay beside a shadow, on the first `trace_fraction` of the stream
/// followed by the calibration sweep.
pub fn trace(cfg: &Config) -> Outcome {
    let scratch = Scratch::new().expect("scratch directory");
    let items = cfg.items();
    println!(
        "workload {} seed {} seconds {} items {items} | traced | flush: {FLUSH_POLICY}",
        cfg.workload.name, cfg.seed, cfg.seconds
    );
    let template = scratch.dir("base");
    build_base(&template, cfg.seed, items);
    let open = |name: &str| {
        Sut::open(
            scratch
                .copy_of(&template, name)
                .expect("copy the base store"),
            cfg.seed,
        )
    };
    // A serves the socket pass, B the in-process replay, the shadow the
    // direct layer calls; `plain` is B's gateway without telemetry.
    let a = open("a");
    let stream =
        generate(cfg.workload, cfg.seed, cfg.seconds, items).prefix(cfg.workload.trace_fraction);
    let sweep_stream = Stream {
        clients: vec![sweep(cfg.seed, items, if cfg.quick { 20 } else { 1 })],
    };

    let mut problems = Vec::new();
    let pass = run_tcp(&a, &stream, items, cfg.seconds);
    pass_problems(&pass, &stream, &mut problems);
    let sweep_pass = run_tcp(&a, &sweep_stream, items, cfg.seconds);
    pass_problems(&sweep_pass, &sweep_stream, &mut problems);

    // Opened only now, so that the socket pass's thread and memory counts
    // are A's alone.
    let (b, shadow) = (open("b"), open("shadow"));
    let plain = HttpGateway::new(build_sdk(cfg.seed, false).1);
    // Each replayed request beside what the socket pass saw of it.
    let positions = stream.merged();
    let sweep_from = positions.len();
    let mut order: Vec<&Req> = positions
        .iter()
        .map(|&(c, i)| &stream.clients[c][i])
        .collect();
    order.extend(sweep_stream.clients[0].iter());
    let over_socket = |i: usize| -> Option<&Sample> {
        let &(client, index) = positions.get(i)?;
        pass.clients[client].get(index).filter(|s| s.ok)
    };
    let wal_before = shadow.kb.wal_stats();
    let replayed = replay(&b, &shadow, &plain, &order, sweep_from, items);
    problems.extend(replayed.errors.iter().cloned());

    // The socket pass and the replay answered the same stream.
    let mut tcp_checks = pass.checks.clone();
    tcp_checks.absorb(sweep_pass.checks.clone());
    if pass.attempted() + sweep_pass.attempted() == order.len() && tcp_checks != replayed.checks {
        problems.push(format!(
            "socket pass and traced replay disagree: rows {} digest {:016x} docs {} vs rows {} digest {:016x} docs {}",
            tcp_checks.rows, tcp_checks.rows_digest, tcp_checks.docs_acked,
            replayed.checks.rows, replayed.checks.rows_digest, replayed.checks.docs_acked
        ));
    }
    // The gateway-fed stores and the shadow hold the same knowledge.
    let contents = |s: &Sut| (s.kb.statement_count(), s.kb.contents_digest());
    let (in_a, in_b, in_shadow) = (contents(&a), contents(&b), contents(&shadow));
    if in_b != in_shadow
        || (pass.attempted() + sweep_pass.attempted() == order.len() && in_a != in_b)
    {
        problems.push(format!(
            "stores diverged: socket {in_a:x?}, replay {in_b:x?}, shadow {in_shadow:x?}"
        ));
    }

    // ---- metrics read off the socket pass --------------------------
    let own = |r: &Replayed| !r.in_sweep;
    let primary = &pass.clients[0];
    let tcp_latencies = sorted_latencies(primary.iter().filter(|s| s.ok).map(|s| s.latency_ns));
    let tcp_p50_us = ns_to_us(percentile(&tcp_latencies, 0.5).0);
    // Transport: per request of client 0, the socket latency minus the
    // untraced in-process `handle_text` of the same request in the same
    // store state (connect, accept poll, read, write, close — and, in the
    // open loop, queueing).
    let mut in_process = Vec::new();
    let mut transport = Vec::new();
    for (i, r) in replayed.requests.iter().enumerate() {
        if let (false, Some(&(0, _)), Some(sample)) = (r.traced, positions.get(i), over_socket(i)) {
            in_process.push(ns_to_us(r.request_ns));
            transport.push(ns_to_us(sample.latency_ns) - ns_to_us(r.request_ns));
        }
    }
    let in_process_us = median(&in_process);
    let writer_busy: Vec<(u64, u64)> = pass
        .clients
        .iter()
        .skip(1)
        .flatten()
        .map(|s| (s.sent_ns, s.done_ns))
        .collect();
    let hol_blocked = primary
        .iter()
        .filter(|s| {
            writer_busy
                .iter()
                .any(|&(from, to)| (from..to).contains(&s.due_ns))
        })
        .count() as f64
        / primary.len() as f64;
    let late = sorted_latencies(primary.iter().map(Sample::late_ns));
    let both = || pass.clients.iter().chain(&sweep_pass.clients).flatten();
    let shed = both().filter(|s| s.shed).count();
    let cached: Vec<&Sample> = primary
        .iter()
        .filter(|s| matches!(s.kind, Kind::InvokeHot | Kind::InvokeCold))
        .collect();
    let hit_ratio = if cached.is_empty() {
        0.0
    } else {
        cached.iter().filter(|s| s.cache_hit).count() as f64 / cached.len() as f64
    };
    let (stalls_own, slowest_own) = stalls(&pass);
    let (stalls_sweep, slowest_sweep) = stalls(&sweep_pass);
    let statements_delta = pass.statements_delta + sweep_pass.statements_delta;
    let rss_delta = pass.rss_delta_bytes + sweep_pass.rss_delta_bytes;
    // A kind's latency from the workload's own requests where it has any,
    // otherwise from the sweep.
    let of_kind = |keep: fn(&Sample) -> bool, value: fn(&Sample) -> u64| {
        let from = |p: &TcpPass| {
            sorted_latencies(
                p.clients
                    .iter()
                    .flatten()
                    .filter(|s| s.ok && keep(s))
                    .map(value),
            )
        };
        let own = from(&pass);
        if own.is_empty() {
            from(&sweep_pass)
        } else {
            own
        }
    };
    let reads = of_kind(|s| s.kind != Kind::Ingest, |s| s.latency_ns);
    let writes = of_kind(|s| s.kind == Kind::Ingest, |s| s.latency_ns);
    let requests_k = (pass.attempted() + sweep_pass.attempted()) as f64 / 1e3;

    // ---- metrics from the traced replay ----------------------------
    let requests = &replayed.requests;
    let spans = &replayed.log.spans;
    let med = |keep: &dyn Fn(&Replayed) -> bool, f: fn(&Replayed) -> u64| {
        median_us(requests, keep, f).expect("the workload has traced requests")
    };
    let own_traced = |r: &Replayed| own(r) && r.traced;
    let handle_us = med(&own_traced, |r| r.handle_ns);
    let inside_us = med(&|r: &Replayed| own(r) && r.inner_first, |r| {
        r.json_parse_ns + r.inner_ns + r.json_ser_ns
    });
    let per_kib = |ns: u64, bytes: usize| ns as f64 / 1e3 / (bytes as f64 / 1024.0);
    let json_parse = per_kib(
        requests.iter().map(|r| r.json_parse_ns).sum(),
        requests.iter().map(|r| r.body_bytes).sum(),
    );
    let serialised = || requests.iter().filter(|r| r.json_ser_ns > 0);
    let json_ser = per_kib(
        serialised().map(|r| r.json_ser_ns).sum(),
        serialised().map(|r| r.response_bytes).sum(),
    );
    let span_ns =
        |name: &str| span_median_ns(spans, name).unwrap_or_else(|| panic!("no {name} span"));
    let invoke_traced = |r: &Replayed| r.kind.is_invoke() && r.traced;
    let obs_overhead_ns = 1e3
        * (med(&invoke_traced, |r| r.handle_ns)
            - med(&|r: &Replayed| r.kind.is_invoke(), |r| {
                r.plain_handle_ns.unwrap_or(0)
            }));
    let totals = &replayed.shadow;
    let execute: Vec<f64> = totals.execute_ns.iter().map(|&ns| ns_to_us(ns)).collect();
    // Row building in the query handler: the closure minus its parse, pin
    // and query, kind by kind (each from the queries it ran first on).
    let (mut serialize_us, mut serialized) = (0.0, 0.0);
    for kind in Kind::ALL {
        let of = |samples: &[(Kind, u64)]| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.0 == kind)
                .map(|s| ns_to_us(s.1))
                .collect()
        };
        let (whole, parts) = (of(&totals.handler_ns), of(&totals.handler_parts_ns));
        if !whole.is_empty() && !parts.is_empty() {
            let n = (whole.len() + parts.len()) as f64;
            serialize_us += n * (median(&whole) - median(&parts));
            serialized += n;
        }
    }
    let joins = (totals.loop_joins + totals.merge_joins).max(1) as f64;
    let kdocs = totals.docs as f64 / 1e3;
    let wal = shadow.kb.wal_stats();
    let wal_delta = |after: u64, before: u64| (after - before) as f64;
    // Tracing overhead: traced against untraced halves, kind by kind.
    let (mut extra, mut base) = (0.0, 0.0);
    for row in budget(requests, false) {
        let traced = med(&|r: &Replayed| own_traced(r) && r.kind == row.kind, |r| {
            r.request_ns
        });
        extra += row.count as f64 * (traced - row.in_process);
        base += row.count as f64 * row.in_process;
    }

    // Scrape cost on B, whose registry now holds the run's series.
    let scrape =
        parse_request("GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n").expect("static request");
    let mut metrics_bytes = 0;
    let scrapes: Vec<f64> = (0..21)
        .map(|_| {
            let started = Instant::now();
            let response = b.gateway.handle(&scrape);
            let us = started.elapsed().as_secs_f64() * 1e6;
            metrics_bytes = response.body.len();
            us
        })
        .collect();

    let started = Instant::now();
    shadow.kb.snapshot().expect("snapshot the shadow store");
    let snapshot_ms = started.elapsed().as_secs_f64() * 1e3;
    let disk_per_statement =
        dir_bytes(&shadow.dir).expect("store directory") as f64 / in_shadow.0 as f64;
    let recover_ms = match shadow.close_and_verify_recovery() {
        Ok(ms) => ms,
        Err(e) => {
            problems.push(e);
            0.0
        }
    };
    drop((a, b));
    let insert_batch_us = insert_batch_probe(
        scratch
            .copy_of(&template, "probe")
            .expect("copy the base store"),
    );

    let metrics: Vec<(&'static str, f64)> = vec![
        ("core.gateway.transport_us", median(&transport)),
        ("core.gateway.parse_us", med(&own_traced, |r| r.parse_ns)),
        ("core.gateway.format_us", med(&own_traced, |r| r.format_ns)),
        ("core.gateway.route_self_us", handle_us - inside_us),
        ("core.gateway.hol_blocked_share", hol_blocked),
        (
            "core.gateway.generator_late_p99_us",
            ns_to_us(percentile(&late, 0.99).0),
        ),
        ("core.gateway.shed_count", shed as f64),
        ("json.parse_us_per_kib", json_parse),
        ("json.ser_us_per_kib", json_ser),
        (
            "core.sdk.invoke_cached_hit_ns",
            span_ns("core.sdk.invoke_cached_hit"),
        ),
        (
            "core.sdk.invoke_cached_miss_ns",
            span_ns("core.sdk.invoke_cached_miss"),
        ),
        ("core.sdk.invoke_class_ns", span_ns("core.sdk.invoke_class")),
        ("core.cache.hit_ratio", hit_ratio),
        (
            "sim.virtual_ms_per_req",
            pass.virtual_ms / pass.attempted() as f64,
        ),
        ("obs.overhead_ns_per_req", obs_overhead_ns),
        ("obs.metrics_scrape_us", median(&scrapes)),
        ("obs.metrics_bytes", metrics_bytes as f64),
        ("rdf.epoch.pin_ns", span_ns("rdf.epoch.pin")),
        ("kb.query_us.point", span_ns("kb.query.point") / 1e3),
        (
            "kb.query_us.join_limit",
            span_ns("kb.query.join_limit") / 1e3,
        ),
        ("kb.query_us.join_full", span_ns("kb.query.join_full") / 1e3),
        (
            "rdf.plan.plan_us",
            totals.plan_us as f64 / totals.queries as f64,
        ),
        ("rdf.plan.execute_us", median(&execute)),
        (
            "rdf.plan.rows_per_query",
            totals.query_rows as f64 / totals.queries as f64,
        ),
        ("rdf.plan.loop_join_share", totals.loop_joins as f64 / joins),
        ("kb.gateway.serialize_us", serialize_us / serialized),
        (
            "text.analyze_us_per_doc",
            totals.analyze_ns as f64 / 1e3 / totals.docs as f64,
        ),
        (
            "kb.ingest.stream_docs_per_s",
            totals.docs as f64 / (totals.stream_ns as f64 / 1e9),
        ),
        (
            "kb.ingest.statements_per_doc",
            totals.statements as f64 / totals.docs as f64,
        ),
        (
            "rdf.wal.bytes_per_doc",
            wal_delta(wal.bytes, wal_before.bytes) / totals.docs as f64,
        ),
        (
            "rdf.wal.appends_per_kdoc",
            wal_delta(wal.appends, wal_before.appends) / kdocs,
        ),
        (
            "rdf.wal.fsyncs_per_kdoc",
            wal_delta(wal.fsyncs, wal_before.fsyncs) / kdocs,
        ),
        ("rdf.durable.insert_batch_us_per_kstmt", insert_batch_us),
        (
            "rdf.epoch.publish_stall_ms_max",
            slowest_own.max(slowest_sweep),
        ),
        ("rdf.epoch.stall_count", (stalls_own + stalls_sweep) as f64),
        (
            "kb.mem_bytes_per_statement",
            rss_delta as f64 / statements_delta.max(1) as f64,
        ),
        ("kb.disk_bytes_per_statement", disk_per_statement),
        ("kb.snapshot_ms", snapshot_ms),
        ("kb.recover_ms", recover_ms),
        ("mixed.read_p99_us", ns_to_us(percentile(&reads, 0.99).0)),
        ("mixed.write_p50_us", ns_to_us(percentile(&writes, 0.5).0)),
        (
            "process.cpu_s_per_kreq",
            (pass.cpu_s + sweep_pass.cpu_s) / requests_k,
        ),
        (
            "process.threads_peak",
            pass.threads_peak.max(sweep_pass.threads_peak) as f64,
        ),
        ("trace.overhead_share", extra / base),
    ];

    println!("latency budget, median us per request kind (traced half; in-process = untraced handle_text):");
    println!(
        "  {:<18} {:>6} {:>9} {:>10} {:>10} {:>9} {:>10} {:>9} {:>10} {:>10}",
        "kind",
        "n",
        "parse",
        "json.parse",
        "inner",
        "json.ser",
        "route_self",
        "format",
        "sum",
        "in-process"
    );
    for (label, in_sweep) in [("workload", false), ("sweep", true)] {
        for row in budget(requests, in_sweep) {
            println!(
                "  {:<18} {:>6} {:>9.2} {:>10.2} {:>10.2} {:>9.2} {:>10.2} {:>9.2} {:>10.2} {:>10.2}  ({label})",
                row.kind.label(), row.count, row.parse, row.json_parse, row.inner, row.json_ser,
                row.route_self, row.format, row.sum(), row.in_process
            );
        }
    }
    // Where the replay's time went, by span name: the workload's own
    // requests only, so a layer the workload bypasses shows as absent.
    let by_name = self_time_by_name(spans, |trace| (trace as usize) <= sweep_from);
    let traced_ns: u64 = by_name.iter().map(|row| row.2).sum();
    let share = |ns: u64| 100.0 * ns as f64 / traced_ns.max(1) as f64;
    println!("span self time over the workload's own requests:");
    for &(name, count, ns) in &by_name {
        println!(
            "  {name:<34} {count:>7} spans {:>12.3} ms {:>6.2} %",
            ns as f64 / 1e6,
            share(ns)
        );
    }
    let storage_ns = by_name
        .iter()
        .filter(|row| row.0.starts_with("kb.") || row.0.starts_with("rdf."))
        .map(|row| row.2)
        .sum();
    println!(
        "  kb.* and rdf.* spans together: {:.2} % of traced time",
        share(storage_ns)
    );
    println!(
        "socket p50 {tcp_p50_us:.1} us (n={}), in-process median {in_process_us:.1} us",
        tcp_latencies.len()
    );
    for (&(name, value), layer) in metrics.iter().zip(&PER_LAYER) {
        print_metric(
            name,
            value,
            &format!("{} is better -> {}", layer.better.label(), layer.moves),
        );
    }
    if let Some(dir) = &cfg.out {
        std::fs::create_dir_all(dir).expect("create the output directory");
        let path = dir.join(format!("trace-{}.jsonl", cfg.workload.name));
        replayed
            .log
            .write_jsonl(&path)
            .expect("write the span file");
        println!("{} spans written to {}", spans.len(), path.display());
    }
    finish(
        metrics,
        PER_LAYER.iter().map(|m| m.name),
        pass.attempted() + sweep_pass.attempted(),
        pass.failed() + sweep_pass.failed(),
        problems,
    )
}
