//! Implementation of the `gsr` command-line tool.
//!
//! ```text
//! gsr generate --preset foursquare --scale 0.5 --out network.gsr
//! gsr stats network.gsr
//! gsr query network.gsr --method 3dreach --vertex 12 --rect 10,10,50,50
//! gsr query network.gsr --method all < queries.txt
//! gsr build network.gsr --method 3dreach --save index.snap
//! gsr build network.gsr --method 3dreach --shards 4 --save index.shards
//! gsr serve --load index.snap --port 7070 --threads 4 --budget-ms 100
//! gsr serve --load yelp=yelp.snap --load gowalla=gowalla.shards
//! ```
//!
//! The `query` subcommand without `--vertex/--rect` reads one query per
//! stdin line: `<vertex> <min_x> <min_y> <max_x> <max_y>`.
//!
//! `build` persists one built index as a `gsr-store` snapshot — with
//! `--shards N` it spatially partitions the check-ins into N tiles and
//! writes a *directory* of per-tile snapshots plus a manifest; `serve`
//! loads snapshots (no rebuild) and answers `REACH` queries over TCP
//! using the `gsr-server` text protocol. `--load` repeats: each
//! `[name=]PATH` registers one dataset, selectable per connection with
//! `USE <name>` (an unnamed single `--load` is the dataset `default`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gsr_core::methods::SnapshotIndex;
use gsr_core::{
    BatchExecutor, BatchOptions, GsrError, Method, PreparedNetwork, RangeReachIndex,
    SccSpatialPolicy,
};
use gsr_datagen::{check_scale, io, NetworkSpec};
use gsr_geo::Rect;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `gsr generate --preset P --scale S --out FILE`
    Generate {
        /// Dataset preset name.
        preset: String,
        /// Scale factor (1.0 ≈ 1% of the paper's sizes).
        scale: f64,
        /// Output path.
        out: PathBuf,
    },
    /// `gsr stats FILE`
    Stats {
        /// Network file.
        file: PathBuf,
    },
    /// `gsr query FILE [--method M] [--budget-ms B] [--vertex V --rect X0,Y0,X1,Y1]`
    Query {
        /// Network file.
        file: PathBuf,
        /// The methods to answer with (`--method all`: every one).
        methods: Vec<Method>,
        /// One-shot query (otherwise stdin).
        one: Option<(u32, Rect)>,
        /// Wall-clock budget for the whole batch in milliseconds; partial
        /// answers are printed when it expires.
        budget_ms: Option<u64>,
    },
    /// `gsr build FILE --method M --save PATH [--shards N]`
    Build {
        /// Network file.
        file: PathBuf,
        /// The method (one per snapshot; `all` is rejected).
        method: Method,
        /// Snapshot output path (a directory when `shards > 1`).
        save: PathBuf,
        /// Spatial tiles to partition into (`1` = single unsharded
        /// snapshot). With `N > 1` the save path becomes a directory of
        /// per-tile snapshots plus a `MANIFEST.gsrshard`.
        shards: usize,
    },
    /// `gsr serve --load [name=]PATH [--port P] [--threads T] [--budget-ms B]
    /// [--cache-entries N] [--trust-snapshot] [overload limit flags]`
    Serve {
        /// Datasets to serve, in registration order: `(name, path)` where
        /// the path is a snapshot file or a sharded snapshot directory
        /// (built with `gsr build --save [--shards N]`). Connections start
        /// on the first and switch with `USE <name>`.
        loads: Vec<(String, PathBuf)>,
        /// TCP port on 127.0.0.1 (`0` = OS-assigned; the chosen port is
        /// printed on the `listening on` line).
        port: u16,
        /// Connection-handler threads (`0` = machine parallelism).
        threads: usize,
        /// Per-request time budget in milliseconds (unlimited if absent).
        budget_ms: Option<u64>,
        /// Result-cache capacity in entries (`0` = caching disabled).
        cache_entries: usize,
        /// Skip the eager CRC pass on snapshot loads (startup and
        /// `RELOAD`); structural validation still runs.
        trust: bool,
        /// Overload and connection-lifecycle limits.
        limits: ServeLimits,
    },
}

/// Overload and connection-lifecycle limits of `gsr serve`, mapped 1:1
/// onto [`gsr_server::ServerConfig`]. For every limit, `0` means
/// unlimited/disabled; defaults match the server's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeLimits {
    /// `--max-pending`: accept→worker queue bound (`0` = unbounded).
    pub max_pending: usize,
    /// `--max-conns`: admitted-connection bound (`0` = unlimited).
    pub max_conns: usize,
    /// `--max-line`: request-line byte cap (`0` = unlimited).
    pub max_line: usize,
    /// `--max-batch`: pipelined-batch split point (`0` = unlimited).
    pub max_batch: usize,
    /// `--idle-timeout-ms`: reap silent connections (`None` = never).
    pub idle_timeout_ms: Option<u64>,
    /// `--write-timeout-ms`: reply write deadline (`None` = unlimited).
    pub write_timeout_ms: Option<u64>,
}

impl Default for ServeLimits {
    fn default() -> Self {
        let d = gsr_server::ServerConfig::default();
        ServeLimits {
            max_pending: d.max_pending,
            max_conns: d.max_conns,
            max_line: d.max_line,
            max_batch: d.max_batch,
            idle_timeout_ms: d.idle_timeout.map(|t| t.as_millis() as u64),
            write_timeout_ms: d.write_timeout.map(|t| t.as_millis() as u64),
        }
    }
}

/// CLI errors with user-facing messages.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
const USAGE: &str = "\
usage:
  gsr generate --preset <foursquare|gowalla|weeplaces|yelp> [--scale S] --out FILE
  gsr stats FILE
  gsr query FILE [--method <spareach-bfl|spareach-int|georeach|socreach|3dreach|3dreach-rev|all>]
                 [--budget-ms B]                   (batch time budget; partial answers on expiry)
                 [--vertex V --rect X0,Y0,X1,Y1]   (otherwise queries from stdin)
  gsr build FILE --method <spareach-bfl|spareach-int|georeach|socreach|3dreach|3dreach-rev>
                 --save PATH                        (persist a built index as a snapshot)
                 [--shards N]                       (N > 1: spatially partition into N
                                                     tiles and write PATH as a directory
                                                     of per-tile snapshots + manifest)
  gsr serve --load [name=]PATH [--port P] [--threads T] [--budget-ms B] [--cache-entries N]
                 (--threads: connection workers; 0 = all cores, max 1024)
                 (--load repeats: each registers one dataset — snapshot file
                  or sharded directory — switched per connection with USE <name>;
                  a lone unnamed --load is the dataset \"default\")
                 [--trust-snapshot]                 (skip the eager CRC pass on
                                                     loads; structural checks remain)
                 [--max-pending N] [--max-conns N]  (admission control; over-limit
                                                     connections get ERR 7 busy)
                 [--max-line BYTES] [--max-batch N] (request-line / pipeline caps)
                 [--idle-timeout-ms MS]             (reap silent connections)
                 [--write-timeout-ms MS]            (reply write deadline)
                 (serve REACH/STATS/RESET/RELOAD/SHUTDOWN lines over TCP from
                  a snapshot; N > 0 enables the sharded result cache; 0 for
                  any limit means unlimited/disabled)
";

/// Validates four raw coordinates as a query rectangle: all finite, minima
/// not exceeding maxima. The shared boundary for `--rect` and stdin lines.
fn validated_rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Result<Rect, CliError> {
    if [x0, y0, x1, y1].iter().any(|c| !c.is_finite()) {
        return Err(err(format!("rect ({x0}, {y0}, {x1}, {y1}) has a non-finite coordinate")));
    }
    if x0 > x1 || y0 > y1 {
        return Err(err(format!(
            "rect ({x0}, {y0}, {x1}, {y1}) is inverted; expected X0<=X1 and Y0<=Y1"
        )));
    }
    Ok(Rect::new(x0, y0, x1, y1))
}

/// Parses one stdin query line `<vertex> <x0> <y0> <x1> <y1>`. Blank
/// lines and `#` comments yield `Ok(None)`.
fn parse_query_line(line: &str) -> Result<Option<(u32, Rect)>, CliError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = trimmed.split_whitespace().collect();
    if fields.len() != 5 {
        return Err(err(format!("expected `<vertex> <x0> <y0> <x1> <y1>`, got {line:?}")));
    }
    let v: u32 = fields[0].parse().map_err(|_| err(format!("bad vertex id {:?}", fields[0])))?;
    let mut coords = [0.0f64; 4];
    for (slot, field) in coords.iter_mut().zip(&fields[1..]) {
        *slot = field.parse().map_err(|_| err(format!("bad coordinate {field:?}")))?;
    }
    let rect = validated_rect(coords[0], coords[1], coords[2], coords[3])?;
    Ok(Some((v, rect)))
}

/// Parses a `x0,y0,x1,y1` rectangle, rejecting non-finite or inverted
/// extrema.
fn parse_rect(s: &str) -> Result<Rect, CliError> {
    let parts: Vec<f64> = s
        .split(',')
        .map(|p| p.trim().parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(|_| err(format!("invalid rect {s:?}; expected X0,Y0,X1,Y1")))?;
    if parts.len() != 4 {
        return Err(err(format!("invalid rect {s:?}; expected X0,Y0,X1,Y1")));
    }
    validated_rect(parts[0], parts[1], parts[2], parts[3])
        .map_err(|e| err(format!("invalid rect {s:?}: {e}")))
}

/// The method named by a `--method` key, in any case.
fn parse_method(key: &str) -> Result<Method, CliError> {
    Method::from_key(&key.to_ascii_lowercase())
        .ok_or_else(|| err(format!("unknown method {key:?}")))
}

/// The most workers `serve --threads` may ask for. `serve` starts one OS
/// thread per worker, so a typo such as `--threads 1000000` must be a usage
/// error rather than a process table exhausted mid-command.
const MAX_THREADS: usize = 1024;

/// A `--threads` value: `0` (machine parallelism) when absent, at most
/// [`MAX_THREADS`].
fn parse_threads(value: Option<String>) -> Result<usize, CliError> {
    let Some(value) = value else {
        return Ok(0);
    };
    let threads: usize =
        value.parse().map_err(|_| err("--threads must be a non-negative integer"))?;
    if threads > MAX_THREADS {
        return Err(err(format!("--threads {threads} is above the limit of {MAX_THREADS}")));
    }
    Ok(threads)
}

/// The `--flags` each subcommand takes. Any other flag is a usage error, so
/// a typo or a flag another subcommand takes is refused, not ignored.
const FLAGS: [(&str, &[&str]); 5] = [
    ("generate", &["preset", "scale", "out"]),
    ("stats", &[]),
    ("query", &["method", "budget-ms", "vertex", "rect"]),
    ("build", &["method", "save", "shards"]),
    (
        "serve",
        &[
            "load",
            "port",
            "threads",
            "budget-ms",
            "cache-entries",
            "trust-snapshot",
            "max-pending",
            "max-conns",
            "max-line",
            "max-batch",
            "idle-timeout-ms",
            "write-timeout-ms",
        ],
    ),
];

/// Parses the argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = it.next().ok_or_else(|| err(USAGE))?;
    let known = FLAGS.iter().find(|(name, _)| name == sub).map(|&(_, flags)| flags);

    // Collect positionals and --flags. `--load` is repeatable (one dataset
    // per occurrence) so it accumulates in order instead of overwriting.
    let mut positional: Vec<&String> = Vec::new();
    let mut flags: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut load_specs: Vec<String> = Vec::new();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if known.is_some_and(|known| !known.contains(&name)) {
                return Err(err(format!("gsr {sub} takes no --{name}\n{USAGE}")));
            }
            // Boolean flags take no value; everything else consumes one.
            if name == "trust-snapshot" {
                flags.insert(name.to_string(), "true".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| err(format!("--{name} needs a value")))?;
            if name == "load" {
                load_specs.push(value.clone());
            } else {
                flags.insert(name.to_string(), value.clone());
            }
        } else {
            positional.push(a);
        }
    }
    let flag = |name: &str| flags.get(name).cloned();

    match sub.as_str() {
        "generate" => {
            let preset = flag("preset").ok_or_else(|| err("generate needs --preset"))?;
            let scale = flag("scale")
                .map(|s| s.parse())
                .transpose()
                .map_err(|_| err("--scale must be a number"))?
                .unwrap_or(1.0);
            let out = flag("out").ok_or_else(|| err("generate needs --out"))?;
            spec_for(&preset, scale)?;
            Ok(Command::Generate { preset, scale, out: PathBuf::from(out) })
        }
        "stats" => {
            let file = positional.first().ok_or_else(|| err("stats needs a FILE"))?;
            Ok(Command::Stats { file: PathBuf::from(file) })
        }
        "query" => {
            let file = positional.first().ok_or_else(|| err("query needs a FILE"))?;
            let methods = match flag("method") {
                None => vec![Method::ThreeDReach],
                Some(key) if key.eq_ignore_ascii_case("all") => Method::ALL.to_vec(),
                Some(key) => vec![parse_method(&key)?],
            };
            let one = match (flag("vertex"), flag("rect")) {
                (Some(v), Some(r)) => {
                    Some((v.parse().map_err(|_| err("--vertex must be an id"))?, parse_rect(&r)?))
                }
                (None, None) => None,
                _ => return Err(err("--vertex and --rect go together")),
            };
            let budget_ms = flag("budget-ms")
                .map(|b| b.parse())
                .transpose()
                .map_err(|_| err("--budget-ms must be a non-negative integer"))?;
            Ok(Command::Query { file: PathBuf::from(file), methods, one, budget_ms })
        }
        "build" => {
            let file = positional.first().ok_or_else(|| err("build needs a FILE"))?;
            let key = flag("method").ok_or_else(|| err("build needs --method"))?;
            let method = parse_method(&key).map_err(|e| {
                err(format!("{e} (a snapshot holds one method; `all` is not supported)"))
            })?;
            let save = flag("save").ok_or_else(|| err("build needs --save"))?;
            let shards = flag("shards")
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|_| err("--shards must be a positive integer"))?
                .unwrap_or(1);
            if shards == 0 {
                return Err(err("--shards must be at least 1"));
            }
            Ok(Command::Build {
                file: PathBuf::from(file),
                method,
                save: PathBuf::from(save),
                shards,
            })
        }
        "serve" => {
            if load_specs.is_empty() {
                return Err(err("serve needs --load"));
            }
            let mut loads: Vec<(String, PathBuf)> = Vec::with_capacity(load_specs.len());
            for spec in &load_specs {
                // `name=path` registers a named dataset; a bare path is the
                // dataset "default" (so single-snapshot serving needs no
                // name).
                let (name, path) = match spec.split_once('=') {
                    Some((name, path)) if !name.is_empty() && !path.is_empty() => (name, path),
                    Some(_) => {
                        return Err(err(format!(
                            "--load {spec:?}: expected [name=]PATH with a non-empty name and path"
                        )))
                    }
                    None => ("default", spec.as_str()),
                };
                if loads.iter().any(|(have, _)| have == name) {
                    return Err(err(format!(
                        "--load {spec:?}: duplicate dataset name {name:?} (name datasets with \
                         --load name=PATH)"
                    )));
                }
                loads.push((name.to_string(), PathBuf::from(path)));
            }
            let port = flag("port")
                .map(|p| p.parse())
                .transpose()
                .map_err(|_| err("--port must be a port number"))?
                .unwrap_or(7070);
            let threads = parse_threads(flag("threads"))?;
            let budget_ms = flag("budget-ms")
                .map(|b| b.parse())
                .transpose()
                .map_err(|_| err("--budget-ms must be a non-negative integer"))?;
            let cache_entries = flag("cache-entries")
                .map(|c| c.parse())
                .transpose()
                .map_err(|_| err("--cache-entries must be a non-negative integer"))?
                .unwrap_or(0);
            let defaults = ServeLimits::default();
            let limit = |name: &str, default: usize| -> Result<usize, CliError> {
                flag(name)
                    .map(|v| v.parse())
                    .transpose()
                    .map_err(|_| err(format!("--{name} must be a non-negative integer")))
                    .map(|v| v.unwrap_or(default))
            };
            let max_pending = limit("max-pending", defaults.max_pending)?;
            let max_conns = limit("max-conns", defaults.max_conns)?;
            let max_line = limit("max-line", defaults.max_line)?;
            let max_batch = limit("max-batch", defaults.max_batch)?;
            // `0` for a timeout flag disables it, matching the other
            // limits' 0-means-unlimited convention.
            let timeout = |name: &str, default: Option<u64>| -> Result<Option<u64>, CliError> {
                flag(name)
                    .map(|v| v.parse::<u64>())
                    .transpose()
                    .map_err(|_| err(format!("--{name} must be a non-negative integer")))
                    .map(|v| match v {
                        None => default,
                        Some(0) => None,
                        Some(ms) => Some(ms),
                    })
            };
            let idle_timeout_ms = timeout("idle-timeout-ms", defaults.idle_timeout_ms)?;
            let write_timeout_ms = timeout("write-timeout-ms", defaults.write_timeout_ms)?;
            Ok(Command::Serve {
                loads,
                port,
                threads,
                budget_ms,
                cache_entries,
                trust: flags.contains_key("trust-snapshot"),
                limits: ServeLimits {
                    max_pending,
                    max_conns,
                    max_line,
                    max_batch,
                    idle_timeout_ms,
                    write_timeout_ms,
                },
            })
        }
        other => Err(err(format!("unknown subcommand {other:?}\n{USAGE}"))),
    }
}

/// The preset at `scale`, if that is a network `gsr build` can read back: a
/// positive scale that passes [`check_scale`].
fn spec_for(preset: &str, scale: f64) -> Result<NetworkSpec, CliError> {
    let preset: fn(f64) -> NetworkSpec = match preset.to_ascii_lowercase().as_str() {
        "foursquare" => NetworkSpec::foursquare,
        "gowalla" => NetworkSpec::gowalla,
        "weeplaces" => NetworkSpec::weeplaces,
        "yelp" => NetworkSpec::yelp,
        other => return Err(err(format!("unknown preset {other:?}"))),
    };
    if scale == 0.0 {
        return Err(err("--scale must be > 0, got 0"));
    }
    check_scale(scale, &[preset]).map_err(err)?;
    Ok(preset(scale))
}

fn load_prepared(file: &Path) -> Result<PreparedNetwork, GsrError> {
    let net = io::load_network(file)
        .map_err(|e| GsrError::Load(format!("cannot load {}: {e}", file.display())))?;
    Ok(PreparedNetwork::new(net))
}

/// `; peak rss <N> MiB` — the process's resident-set high-water mark
/// (`VmHWM` of `/proc/self/status`), which for `gsr build` is what the
/// build cost in memory. Empty where that file does not exist or parse.
fn peak_rss_clause() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?.split_whitespace().next()?.parse::<u64>().ok()
    });
    kib.map_or(String::new(), |kib| format!("; peak rss {} MiB", kib.div_ceil(1024)))
}

/// Maps an error from [`run`] to a process exit code:
///
/// | code | condition |
/// |---|---|
/// | 1 | internal or uncategorized error |
/// | 2 | bad command line ([`CliError`]) |
/// | 3 | dataset failed to load ([`GsrError::Load`]) |
/// | 4 | invalid query vertex or rectangle |
/// | 5 | time budget exceeded |
/// | 6 | cancelled |
pub fn exit_code(e: &(dyn std::error::Error + 'static)) -> i32 {
    if e.is::<CliError>() {
        return 2;
    }
    match e.downcast_ref::<GsrError>() {
        Some(GsrError::Load(_)) => 3,
        Some(GsrError::InvalidVertex { .. } | GsrError::InvalidRect { .. }) => 4,
        Some(GsrError::Timeout { .. }) => 5,
        Some(GsrError::Cancelled) => 6,
        Some(GsrError::Internal(_)) | None => 1,
    }
}

/// Executes a parsed command, writing human-readable output to `out`. A
/// reader that closed `out` (`gsr stats FILE | head -1`) ends the output,
/// not the command with an error: once a write to `out` has failed with
/// `BrokenPipe`, that error becomes `Ok(())`.
pub fn run(cmd: Command, out: &mut impl std::io::Write) -> Result<(), Box<dyn std::error::Error>> {
    let mut out = Output { inner: out, closed: false };
    match execute(cmd, &mut out) {
        Err(e) if out.closed && e.downcast_ref().is_some_and(is_broken_pipe) => Ok(()),
        result => result,
    }
}

fn is_broken_pipe(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::BrokenPipe
}

/// The writer [`run`] hands to a command: `inner`, remembering whether a
/// write to it found the reader gone.
struct Output<'a, W> {
    inner: &'a mut W,
    closed: bool,
}

impl<W: std::io::Write> Output<'_, W> {
    fn note<T>(&mut self, result: std::io::Result<T>) -> std::io::Result<T> {
        self.closed |= result.as_ref().is_err_and(is_broken_pipe);
        result
    }
}

impl<W: std::io::Write> std::io::Write for Output<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let result = self.inner.write(buf);
        self.note(result)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let result = self.inner.flush();
        self.note(result)
    }
}

fn execute(cmd: Command, out: &mut impl std::io::Write) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Generate { preset, scale, out: path } => {
            let spec = spec_for(&preset, scale)?;
            let net = spec.generate();
            io::save_network(&net, &path)?;
            writeln!(
                out,
                "wrote {} ({} vertices, {} edges, {} spatial) to {}",
                spec.name,
                net.num_vertices(),
                net.graph().num_edges(),
                net.num_spatial(),
                path.display()
            )?;
        }
        Command::Stats { file } => {
            let prep = load_prepared(&file)?;
            let s = prep.stats();
            writeln!(out, "vertices:     {}", s.vertices)?;
            writeln!(out, "edges:        {}", s.edges)?;
            writeln!(out, "users:        {}", s.users)?;
            writeln!(out, "venues:       {}", s.venues)?;
            writeln!(out, "SCCs:         {}", s.sccs)?;
            writeln!(out, "largest SCC:  {}", s.largest_scc)?;
            writeln!(out, "space:        {}", prep.space())?;
        }
        Command::Query { file, methods, one, budget_ms } => {
            let prep = load_prepared(&file)?;
            let policy = SccSpatialPolicy::Replicate;
            let indexes: Vec<SnapshotIndex> =
                methods.iter().map(|m| m.build(&prep, policy)).collect();
            fn run_one(
                indexes: &[SnapshotIndex],
                v: u32,
                r: &Rect,
                out: &mut impl std::io::Write,
            ) -> Result<(), Box<dyn std::error::Error>> {
                for idx in indexes {
                    let start = std::time::Instant::now();
                    let answer = idx.try_query(v, r)?;
                    writeln!(
                        out,
                        "{}\tRangeReach({v}, {r}) = {answer}\t[{:?}]",
                        idx.name(),
                        start.elapsed()
                    )?;
                }
                Ok(())
            }
            // Collect stdin queries (hardened: malformed lines are skipped
            // with their position, never aborting the session).
            let queries: Vec<(u32, Rect)> = match one {
                Some((v, r)) => vec![(v, r)],
                None => {
                    let stdin = std::io::stdin();
                    let mut queries = Vec::new();
                    for (idx, line) in stdin.lock().lines().enumerate() {
                        let line = line?;
                        let lineno = idx + 1;
                        match parse_query_line(&line) {
                            Ok(Some(q)) => queries.push(q),
                            Ok(None) => {}
                            Err(e) => writeln!(out, "line {lineno}: skipping: {e}")?,
                        }
                    }
                    queries
                }
            };
            match budget_ms {
                None => {
                    for (v, r) in &queries {
                        match run_one(&indexes, *v, r, out) {
                            Ok(()) => {}
                            // One-shot: surface the error (exit code 4);
                            // batch mode: report and keep going.
                            Err(e) if one.is_some() => return Err(e),
                            Err(e) => writeln!(out, "RangeReach({v}, {r}): error: {e}")?,
                        }
                    }
                }
                Some(budget_ms) => {
                    let options =
                        BatchOptions::unlimited().with_budget(Duration::from_millis(budget_ms));
                    let exec = BatchExecutor::new(1);
                    for idx in &indexes {
                        let outcome = exec.run_bounded(idx, &queries, &options);
                        for (i, answer) in outcome.answers.iter().enumerate() {
                            if let Some(answer) = answer {
                                let (v, r) = &queries[i];
                                writeln!(out, "{}\tRangeReach({v}, {r}) = {answer}", idx.name())?;
                            }
                        }
                        for (i, e) in &outcome.errors {
                            let (v, r) = &queries[*i];
                            writeln!(out, "{}\tRangeReach({v}, {r}): error: {e}", idx.name())?;
                        }
                        writeln!(
                            out,
                            "{}\tcompleted {}/{}{}",
                            idx.name(),
                            outcome.completed,
                            queries.len(),
                            if outcome.timed_out {
                                " (budget exceeded; partial answers above)"
                            } else {
                                ""
                            }
                        )?;
                    }
                }
            }
        }
        Command::Build { file, method, save, shards } => {
            let prep = load_prepared(&file)?;
            if shards <= 1 {
                let start = std::time::Instant::now();
                let snapshot = method.build(&prep, SccSpatialPolicy::Replicate);
                let build_time = start.elapsed();
                gsr_store::save_to_path(&save, &snapshot)?;
                let bytes = std::fs::metadata(&save).map(|m| m.len()).unwrap_or(0);
                let heap = snapshot.index_bytes();
                let nv = snapshot.num_vertices().max(1);
                writeln!(
                    out,
                    "built {} in {build_time:?}; index heap {heap} bytes ({:.1} bytes/vertex); \
                     wrote {bytes} byte snapshot to {}{}",
                    method.key(),
                    heap as f64 / nv as f64,
                    save.display(),
                    peak_rss_clause()
                )?;
            } else {
                // Sharded build: partition the check-in points into spatial
                // tiles and build one index per tile view — a private
                // spatial structure over the network's one social index —
                // and persist the set as a directory.
                let start = std::time::Instant::now();
                let mut built: Vec<(SnapshotIndex, Option<gsr_geo::Rect>)> =
                    Vec::with_capacity(shards);
                let mut lines = Vec::with_capacity(shards);
                for (i, (tile_prep, mbr)) in
                    gsr_core::prepared_tiles(prep.network(), shards).enumerate()
                {
                    let index = method.build(&tile_prep, SccSpatialPolicy::Replicate);
                    built.push((index, mbr));
                    lines.push(match mbr {
                        Some(m) => format!(
                            "  shard {i}: {} spatial vertices, mbr {m}",
                            tile_prep.network().num_spatial()
                        ),
                        None => format!("  shard {i}: empty (no spatial vertices)"),
                    });
                }
                let build_time = start.elapsed();
                gsr_store::shard::save_sharded_to_path(&save, &built)?;
                // The router's count: a buffer the shards share is counted
                // once, not once per shard.
                let members = built
                    .into_iter()
                    .map(|(index, mbr)| gsr_core::ShardMember {
                        index: std::sync::Arc::new(index),
                        mbr,
                    })
                    .collect();
                let heap = gsr_core::ShardedIndex::new(members)?.index_bytes();
                writeln!(
                    out,
                    "built {} x{shards} shards in {build_time:?}; index heap {heap} bytes; \
                     wrote sharded snapshot set to {}{}",
                    method.key(),
                    save.display(),
                    peak_rss_clause()
                )?;
                for line in lines {
                    writeln!(out, "{line}")?;
                }
            }
        }
        Command::Serve { loads, port, threads, budget_ms, cache_entries, trust, limits } => {
            let started = std::time::Instant::now();
            let mut datasets: Vec<(String, std::sync::Arc<dyn RangeReachIndex>)> =
                Vec::with_capacity(loads.len());
            let mut load_lines: Vec<String> = Vec::with_capacity(loads.len());
            let mut first_format = 0u32;
            for (name, path) in &loads {
                let (index, info) =
                    gsr_store::load_served_index(path, gsr_store::LoadOptions { trust })?;
                if first_format == 0 {
                    first_format = info.format;
                }
                load_lines.push(format!(
                    "loaded {name}={} (format v{}, {} bytes, {})",
                    path.display(),
                    info.format,
                    info.file_bytes,
                    if info.mapped { "memory-mapped" } else { "heap-decoded" },
                ));
                datasets.push((name.clone(), index));
            }
            let load = started.elapsed();
            let load_ms = load.as_secs_f64() * 1e3;
            let config = gsr_server::ServerConfig {
                threads,
                budget: budget_ms.map(Duration::from_millis),
                cache_entries,
                max_pending: limits.max_pending,
                max_conns: limits.max_conns,
                max_line: limits.max_line,
                max_batch: limits.max_batch,
                idle_timeout: limits.idle_timeout_ms.map(Duration::from_millis),
                write_timeout: limits.write_timeout_ms.map(Duration::from_millis),
                trust_snapshot: trust,
            };
            let server = gsr_server::QueryServer::bind_many(("127.0.0.1", port), datasets, config)
                .map_err(|e| Box::new(e) as Box<dyn std::error::Error>)?;
            server.stats().record_load(load, first_format);
            for line in &load_lines {
                writeln!(out, "{line} in {load_ms:.3} ms")?;
            }
            // Printed (and flushed) before blocking so `--port 0` callers
            // can read the OS-assigned port. Everything above already
            // happened, so restart-to-serving is load_ms + bind, and the
            // ready line says so.
            writeln!(out, "listening on {}", server.local_addr())?;
            writeln!(
                out,
                "ready to serve in {:.3} ms (snapshot load {load_ms:.3} ms)",
                started.elapsed().as_secs_f64() * 1e3
            )?;
            out.flush()?;
            server.run()?;
            writeln!(out, "server stopped")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_datagen::faults::ScratchDir;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// The `built …` line of `gsr build` ends in `; peak rss <N> MiB` with a
    /// positive `N` wherever `/proc/self/status` exists, and has no such
    /// field elsewhere.
    fn assert_peak_rss_field(text: &str) {
        let built = text.lines().find(|l| l.starts_with("built ")).expect("a `built` line");
        let field = built.rsplit_once("; peak rss ").map(|(_, rest)| rest);
        if std::path::Path::new("/proc/self/status").exists() {
            let mib = field.and_then(|rest| rest.strip_suffix(" MiB")).expect("peak rss field");
            assert!(mib.parse::<u64>().expect("a whole number of MiB") >= 1, "{built}");
        } else {
            assert_eq!(field, None, "{built}");
        }
    }

    #[test]
    fn parse_generate() {
        let cmd = parse_args(&args(&[
            "generate", "--preset", "yelp", "--scale", "0.5", "--out", "x.gsr",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate { preset: "yelp".into(), scale: 0.5, out: "x.gsr".into() }
        );
    }

    /// A scale that is not a finite number > 0, or whose network would not
    /// load back, is a usage error: exit 2, and nothing is generated.
    #[test]
    fn generate_rejects_scales_it_cannot_write_back() {
        for scale in ["inf", "1e9", "nan", "-1"] {
            let e = parse_args(&args(&[
                "generate", "--preset", "gowalla", "--scale", scale, "--out", "x.gsr",
            ]))
            .unwrap_err();
            assert_eq!(exit_code(&e), 2, "--scale {scale}: {e}");
        }
        let largest = io::DEFAULT_MAX_VERTICES as f64 / 31_300.0;
        for (scale, ok) in [(largest.floor(), true), (largest.ceil(), false)] {
            let parsed = parse_args(&args(&[
                "generate",
                "--preset",
                "gowalla",
                "--scale",
                &scale.to_string(),
                "--out",
                "x.gsr",
            ]));
            assert_eq!(parsed.is_ok(), ok, "--scale {scale}");
        }
    }

    /// `serve --threads` above the cap is a usage error, found while
    /// parsing: no thread is started and no file read.
    #[test]
    fn threads_above_the_cap_are_a_usage_error() {
        let cap = MAX_THREADS.to_string();
        let over = (MAX_THREADS + 1).to_string();
        let cases = [("0", true), (&cap, true), (&over, false), ("1000000", false)];
        for (threads, ok) in cases {
            let argv = args(&["serve", "--load", "i.snap", "--threads", threads]);
            match parse_args(&argv) {
                Ok(_) => assert!(ok, "{argv:?} parsed"),
                Err(e) => {
                    assert!(!ok, "{argv:?}: {e}");
                    assert_eq!(exit_code(&e), 2, "{argv:?}");
                    assert!(e.to_string().contains("--threads"), "{e}");
                }
            }
        }
    }

    /// A flag its subcommand does not take — a typo, another subcommand's
    /// flag, or the `--threads` that `build` and `query` no longer take — is
    /// a usage error naming it; every flag the tests, the README and the
    /// benchmark client pass still parses.
    #[test]
    fn flags_a_subcommand_does_not_take_are_usage_errors() {
        let refused: [(&[&str], &str); 7] = [
            (&["generate", "--preset", "yelp", "--out", "x.gsr", "--scael", "1"], "--scael"),
            (&["stats", "f", "--treads", "4"], "--treads"),
            (
                &["query", "f", "--methods", "all", "--vertex", "0", "--rect", "0,0,1,1"],
                "--methods",
            ),
            (&["query", "f", "--threads", "2"], "--threads"),
            (&["build", "f", "--method", "3dreach", "--save", "x", "--bogus", "3"], "--bogus"),
            (&["build", "f", "--method", "3dreach", "--save", "x", "--threads", "2"], "--threads"),
            (&["serve", "--load", "x", "--shards", "2"], "--shards"),
        ];
        for (argv, flag) in refused {
            let e = parse_args(&args(argv)).unwrap_err();
            assert_eq!(exit_code(&e), 2, "{argv:?}");
            let named = format!("gsr {} takes no {flag}\nusage:", argv[0]);
            assert!(e.0.starts_with(&named), "{argv:?}: {e}");
        }
        let accepted: [&[&str]; 5] = [
            &["generate", "--preset", "yelp", "--scale", "0.02", "--out", "x.gsr"],
            &["stats", "f"],
            &[
                "query",
                "f",
                "--method",
                "all",
                "--budget-ms",
                "9",
                "--vertex",
                "0",
                "--rect",
                "0,0,1,1",
            ],
            &["build", "f", "--method", "3dreach", "--shards", "2", "--save", "x"],
            &[
                "serve",
                "--load",
                "x",
                "--port",
                "0",
                "--threads",
                "2",
                "--budget-ms",
                "100",
                "--cache-entries",
                "256",
                "--trust-snapshot",
                "--max-pending",
                "8",
                "--max-conns",
                "2",
                "--max-line",
                "256",
                "--max-batch",
                "16",
                "--idle-timeout-ms",
                "500",
                "--write-timeout-ms",
                "0",
            ],
        ];
        for argv in accepted {
            if let Err(e) = parse_args(&args(argv)) {
                panic!("{argv:?}: {e}");
            }
        }
    }

    #[test]
    fn parse_query_variants() {
        let cmd = parse_args(&args(&["query", "n.gsr"])).unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                file: "n.gsr".into(),
                methods: vec![Method::ThreeDReach],
                one: None,
                budget_ms: None,
            }
        );
        let cmd = parse_args(&args(&["query", "n.gsr", "--budget-ms", "250"])).unwrap();
        assert!(matches!(cmd, Command::Query { budget_ms: Some(250), .. }));
        assert!(parse_args(&args(&["query", "n.gsr", "--budget-ms", "soon"])).is_err());
        let cmd = parse_args(&args(&[
            "query", "n.gsr", "--method", "all", "--vertex", "7", "--rect", "1,2,3,4",
        ]))
        .unwrap();
        match cmd {
            Command::Query { methods, one: Some((7, r)), .. } => {
                assert_eq!(methods, Method::ALL);
                assert_eq!(r, Rect::new(1.0, 2.0, 3.0, 4.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&args(&["nope"])).is_err());
        assert!(parse_args(&args(&["generate", "--preset", "yelp"])).is_err());
        assert!(parse_args(&args(&["query", "f", "--vertex", "1"])).is_err(), "rect missing");
        assert!(parse_rect("1,2,3").is_err());
        assert!(parse_rect("3,3,1,1").is_err(), "inverted");
        assert!(parse_rect("a,b,c,d").is_err());
        assert!(parse_rect("NaN,0,1,1").is_err(), "non-finite");
        assert!(parse_rect("0,0,inf,1").is_err(), "non-finite");
        assert!(parse_rect("0,0,1,1").is_ok());
        assert!(
            parse_args(&args(&["serve", "--load", "x", "--threads", "-2"])).is_err(),
            "negative thread count"
        );
        // Method keys are checked before any file is read.
        for argv in [&["query", "f", "--method", "bogus"][..], &["build", "f", "--method", "bogus"]]
        {
            let e = parse_args(&args(argv)).unwrap_err();
            assert!(e.0.contains("unknown method \"bogus\""), "{argv:?}: {e}");
        }
        let e = parse_args(&args(&["build", "f", "--method", "all", "--save", "x"])).unwrap_err();
        assert!(e.0.contains("`all` is not supported"), "{e}");
        // Retired subcommands are unknown names, answered with the usage text.
        let e = parse_args(&args(&["report", "f", "--vertex", "1", "--rect", "0,0,1,1"]));
        assert!(e.unwrap_err().0.contains("unknown subcommand \"report\"\nusage:"));
    }

    /// The help text lists the method table's keys, in its order.
    #[test]
    fn usage_lists_every_method_key() {
        let keys = Method::ALL.map(Method::key).join("|");
        let lists: Vec<&str> = USAGE
            .lines()
            .filter_map(|l| l.split_once("--method <")?.1.split_once('>'))
            .map(|(list, _)| list)
            .collect();
        assert_eq!(lists, [format!("{keys}|all"), keys]);
    }

    #[test]
    fn query_line_parsing() {
        assert_eq!(parse_query_line("").unwrap(), None);
        assert_eq!(parse_query_line("  # comment").unwrap(), None);
        assert_eq!(
            parse_query_line("3 0 0 2 2").unwrap(),
            Some((3, Rect::new(0.0, 0.0, 2.0, 2.0)))
        );
        assert!(parse_query_line("3 0 0 2").is_err(), "too few fields");
        assert!(parse_query_line("x 0 0 2 2").is_err(), "bad id");
        assert!(parse_query_line("3 0 0 nope 2").is_err(), "bad coordinate");
        assert!(parse_query_line("3 5 5 1 1").is_err(), "inverted rect");
        assert!(parse_query_line("3 NaN 0 2 2").is_err(), "non-finite rect");
    }

    #[test]
    fn parse_build_and_serve() {
        let cmd =
            parse_args(&args(&["build", "n.gsr", "--method", "georeach", "--save", "idx.snap"]))
                .unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                file: "n.gsr".into(),
                method: Method::GeoReach,
                save: "idx.snap".into(),
                shards: 1,
            }
        );
        let cmd = parse_args(&args(&[
            "build",
            "n.gsr",
            "--method",
            "georeach",
            "--save",
            "idx.shards",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert!(matches!(cmd, Command::Build { shards: 4, .. }));
        assert!(parse_args(&args(&["build", "n.gsr", "--method", "georeach"])).is_err());
        assert!(parse_args(&args(&["build", "n.gsr", "--save", "x"])).is_err());
        assert!(
            parse_args(&args(&[
                "build", "n.gsr", "--method", "georeach", "--save", "x", "--shards", "0",
            ]))
            .is_err(),
            "0 shards"
        );

        let cmd = parse_args(&args(&[
            "serve",
            "--load",
            "idx.snap",
            "--port",
            "0",
            "--threads",
            "2",
            "--budget-ms",
            "50",
            "--cache-entries",
            "1024",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                loads: vec![("default".into(), "idx.snap".into())],
                port: 0,
                threads: 2,
                budget_ms: Some(50),
                cache_entries: 1024,
                trust: false,
                limits: ServeLimits::default(),
            }
        );
        let cmd = parse_args(&args(&["serve", "--load", "idx.snap"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve { port: 7070, threads: 0, budget_ms: None, cache_entries: 0, .. }
        ));
        // --load repeats; name=path registers named datasets in order.
        let cmd =
            parse_args(&args(&["serve", "--load", "yelp=a.snap", "--load", "gowalla=b.shards"]))
                .unwrap();
        let Command::Serve { loads, .. } = cmd else { panic!("expected serve") };
        assert_eq!(
            loads,
            vec![
                ("yelp".to_string(), PathBuf::from("a.snap")),
                ("gowalla".to_string(), PathBuf::from("b.shards")),
            ]
        );
        assert!(
            parse_args(&args(&["serve", "--load", "a.snap", "--load", "b.snap"])).is_err(),
            "two unnamed loads collide on the name \"default\""
        );
        assert!(
            parse_args(&args(&["serve", "--load", "x=a.snap", "--load", "x=b.snap"])).is_err(),
            "duplicate dataset name"
        );
        assert!(parse_args(&args(&["serve", "--load", "=a.snap"])).is_err(), "empty name");
        assert!(parse_args(&args(&["serve", "--load", "x="])).is_err(), "empty path");
        // --trust-snapshot is boolean: it consumes no value, so flags
        // after it still parse.
        let cmd =
            parse_args(&args(&["serve", "--load", "idx.snap", "--trust-snapshot", "--port", "9"]))
                .unwrap();
        assert!(matches!(cmd, Command::Serve { trust: true, port: 9, .. }));
        assert!(parse_args(&args(&["serve"])).is_err(), "load missing");
        assert!(parse_args(&args(&["serve", "--load", "x", "--port", "high"])).is_err());
        assert!(parse_args(&args(&["serve", "--load", "x", "--cache-entries", "-1"])).is_err());
    }

    #[test]
    fn parse_serve_overload_limits() {
        let cmd = parse_args(&args(&[
            "serve",
            "--load",
            "idx.snap",
            "--max-pending",
            "8",
            "--max-conns",
            "4",
            "--max-line",
            "256",
            "--max-batch",
            "16",
            "--idle-timeout-ms",
            "500",
            "--write-timeout-ms",
            "2000",
        ]))
        .unwrap();
        let Command::Serve { limits, .. } = cmd else { panic!("expected serve") };
        assert_eq!(
            limits,
            ServeLimits {
                max_pending: 8,
                max_conns: 4,
                max_line: 256,
                max_batch: 16,
                idle_timeout_ms: Some(500),
                write_timeout_ms: Some(2000),
            }
        );

        // Defaults track the server's; 0 disables a timeout.
        let d = ServeLimits::default();
        assert_eq!(d.max_pending, 1024);
        assert_eq!(d.max_conns, 0);
        assert_eq!(d.max_line, 64 * 1024);
        assert_eq!(d.max_batch, 4096);
        assert_eq!(d.idle_timeout_ms, None);
        assert_eq!(d.write_timeout_ms, Some(10_000));
        let cmd = parse_args(&args(&[
            "serve",
            "--load",
            "idx.snap",
            "--write-timeout-ms",
            "0",
            "--idle-timeout-ms",
            "0",
        ]))
        .unwrap();
        let Command::Serve { limits, .. } = cmd else { panic!("expected serve") };
        assert_eq!(limits.write_timeout_ms, None, "0 disables the write deadline");
        assert_eq!(limits.idle_timeout_ms, None);

        assert!(parse_args(&args(&["serve", "--load", "x", "--max-pending", "lots"])).is_err());
        assert!(parse_args(&args(&["serve", "--load", "x", "--idle-timeout-ms", "-5"])).is_err());
    }

    #[test]
    fn build_saves_a_loadable_snapshot() {
        let scratch = ScratchDir::new("gsr_cli_build_test").unwrap();
        let dir = scratch.path();
        let net = dir.join("net.gsr");
        let snap = dir.join("idx.snap");
        let net_path = net.to_string_lossy().to_string();
        let snap_path = snap.to_string_lossy().to_string();

        let mut out = Vec::new();
        run(
            parse_args(&args(&[
                "generate", "--preset", "yelp", "--scale", "0.01", "--out", &net_path,
            ]))
            .unwrap(),
            &mut out,
        )
        .unwrap();

        let mut out = Vec::new();
        run(
            parse_args(&args(&["build", &net_path, "--method", "3dreach", "--save", &snap_path]))
                .unwrap(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("built 3dreach"), "{text}");
        assert_peak_rss_field(&text);

        // The saved snapshot answers exactly like a fresh build.
        let loaded = gsr_store::load_from_path(&snap).unwrap();
        let prep = load_prepared(&net).unwrap();
        let fresh = Method::ThreeDReach.build(&prep, SccSpatialPolicy::Replicate);
        let r = Rect::new(-1000.0, -1000.0, 2000.0, 2000.0);
        for v in 0..prep.network().num_vertices() as u32 {
            assert_eq!(loaded.query(v, &r), fresh.query(v, &r), "vertex {v}");
        }

        // `all` cannot be snapshotted.
        let e = parse_args(&args(&["build", &net_path, "--method", "all", "--save", &snap_path]))
            .unwrap_err();
        assert!(e.0.contains("`all` is not supported"), "{e}");
        assert_eq!(exit_code(&e), 2, "{e}");

        // A missing snapshot is a load error (exit code 3).
        let e = run(
            parse_args(&args(&["serve", "--load", "/definitely/not/here.snap"])).unwrap(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(exit_code(e.as_ref()), 3, "{e}");
    }

    #[test]
    fn sharded_build_writes_a_directory_the_serve_loader_accepts() {
        let scratch = ScratchDir::new("gsr_cli_shard_build_test").unwrap();
        let dir = scratch.path();
        let net = dir.join("net.gsr");
        let shards = dir.join("idx.shards");
        let net_path = net.to_string_lossy().to_string();
        let shards_path = shards.to_string_lossy().to_string();

        run(
            parse_args(&args(&[
                "generate", "--preset", "yelp", "--scale", "0.01", "--out", &net_path,
            ]))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();

        let mut out = Vec::new();
        run(
            parse_args(&args(&[
                "build",
                &net_path,
                "--method",
                "3dreach",
                "--shards",
                "3",
                "--save",
                &shards_path,
            ]))
            .unwrap(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("built 3dreach x3 shards"), "{text}");
        assert_peak_rss_field(&text);
        assert!(shards.join("MANIFEST.gsrshard").is_file());

        // The directory loads through the serve-path loader and answers
        // exactly like a fresh unsharded build.
        let (loaded, info) =
            gsr_store::load_served_index(&shards, gsr_store::LoadOptions { trust: false }).unwrap();
        assert_eq!(info.format, gsr_store::FORMAT_VERSION);
        let prep = load_prepared(&net).unwrap();
        let fresh = Method::ThreeDReach.build(&prep, SccSpatialPolicy::Replicate);
        let r = Rect::new(-1000.0, -1000.0, 2000.0, 2000.0);
        for v in 0..prep.network().num_vertices() as u32 {
            assert_eq!(loaded.query(v, &r), fresh.query(v, &r), "vertex {v}");
        }
    }

    #[test]
    fn exit_codes_map_error_taxonomy() {
        assert_eq!(exit_code(&err("bad flag")), 2);
        assert_eq!(exit_code(&GsrError::Load("nope".into())), 3);
        assert_eq!(exit_code(&GsrError::InvalidVertex { vertex: 9, num_vertices: 2 }), 4);
        assert_eq!(exit_code(&GsrError::InvalidRect { reason: "nan".into() }), 4);
        assert_eq!(exit_code(&GsrError::Timeout { budget_ms: 5 }), 5);
        assert_eq!(exit_code(&GsrError::Cancelled), 6);
        assert_eq!(exit_code(&GsrError::Internal("boom".into())), 1);
        let boxed: Box<dyn std::error::Error> = Box::new(GsrError::Cancelled);
        assert_eq!(exit_code(boxed.as_ref()), 6);
    }

    #[test]
    fn missing_file_is_a_load_error() {
        let cmd = parse_args(&args(&["stats", "/definitely/not/here.gsr"])).unwrap();
        let mut out = Vec::new();
        let e = run(cmd, &mut out).unwrap_err();
        assert_eq!(exit_code(e.as_ref()), 3, "{e}");
    }

    /// A writer that takes the first `room` bytes, then fails every write
    /// with `kind`: a pipe whose reader has gone (`head -1`), or a full disk.
    struct Closing {
        taken: Vec<u8>,
        room: usize,
        kind: std::io::ErrorKind,
    }

    impl std::io::Write for Closing {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.taken.len() + buf.len() > self.room {
                return Err(self.kind.into());
            }
            self.taken.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_stdout_ends_the_output_and_not_the_command() {
        let scratch = ScratchDir::new("gsr_cli_closed_stdout_test").unwrap();
        let path = scratch.path().join("net.gsr").to_string_lossy().to_string();
        let generate = ["generate", "--preset", "yelp", "--scale", "0.01", "--out", &path];
        run(parse_args(&args(&generate)).unwrap(), &mut Vec::new()).unwrap();
        let one_line = |kind| Closing { taken: Vec::new(), room: 24, kind };

        let stats = || parse_args(&args(&["stats", &path])).unwrap();
        let mut pipe = one_line(std::io::ErrorKind::BrokenPipe);
        run(stats(), &mut pipe).expect("a closed pipe is the end of the output");
        assert!(String::from_utf8_lossy(&pipe.taken).starts_with("vertices:"));
        let query = ["query", &path, "--method", "all", "--vertex", "0", "--rect", "0,0,1,1"];
        run(parse_args(&args(&query)).unwrap(), &mut one_line(std::io::ErrorKind::BrokenPipe))
            .expect("a closed pipe is the end of the output");

        // Any other failed write is still an error.
        let e = run(stats(), &mut one_line(std::io::ErrorKind::StorageFull)).unwrap_err();
        assert_eq!(exit_code(e.as_ref()), 1, "{e}");
    }

    #[test]
    fn out_of_range_one_shot_query_is_an_invalid_vertex_error() {
        let scratch = ScratchDir::new("gsr_cli_badvertex_test").unwrap();
        let dir = scratch.path();
        let file = dir.join("net.gsr");
        let path = file.to_string_lossy().to_string();
        let mut out = Vec::new();
        run(
            parse_args(&args(&["generate", "--preset", "yelp", "--scale", "0.01", "--out", &path]))
                .unwrap(),
            &mut out,
        )
        .unwrap();

        let cmd = parse_args(&args(&["query", &path, "--vertex", "99999999", "--rect", "0,0,1,1"]))
            .unwrap();
        let mut out = Vec::new();
        let e = run(cmd, &mut out).unwrap_err();
        assert_eq!(exit_code(e.as_ref()), 4, "{e}");
    }

    #[test]
    fn budgeted_one_shot_prints_summary() {
        let scratch = ScratchDir::new("gsr_cli_budget_test").unwrap();
        let dir = scratch.path();
        let file = dir.join("net.gsr");
        let path = file.to_string_lossy().to_string();
        let mut out = Vec::new();
        run(
            parse_args(&args(&["generate", "--preset", "yelp", "--scale", "0.01", "--out", &path]))
                .unwrap(),
            &mut out,
        )
        .unwrap();

        // A generous budget: the single query completes.
        let cmd = parse_args(&args(&[
            "query",
            &path,
            "--vertex",
            "0",
            "--rect",
            "-1000,-1000,2000,2000",
            "--budget-ms",
            "60000",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(cmd, &mut out).unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("completed 1/1"), "{text}");
        assert!(!text.contains("budget exceeded"), "{text}");
    }

    #[test]
    fn end_to_end_generate_stats_query() {
        let scratch = ScratchDir::new("gsr_cli_test").unwrap();
        let dir = scratch.path();
        let file = dir.join("net.gsr");
        let path = file.to_string_lossy().to_string();

        let mut out = Vec::new();
        run(
            parse_args(&args(&[
                "generate",
                "--preset",
                "weeplaces",
                "--scale",
                "0.02",
                "--out",
                &path,
            ]))
            .unwrap(),
            &mut out,
        )
        .unwrap();
        assert!(String::from_utf8_lossy(&out).contains("wrote WeePlaces"));

        let mut out = Vec::new();
        run(parse_args(&args(&["stats", &path])).unwrap(), &mut out).unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert!(text.contains("vertices:"), "{text}");
        assert!(text.contains("largest SCC:"));

        let mut out = Vec::new();
        run(
            parse_args(&args(&[
                "query",
                &path,
                "--method",
                "all",
                "--vertex",
                "0",
                "--rect",
                "-1000,-1000,2000,2000",
            ]))
            .unwrap(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out).to_string();
        assert_eq!(text.matches("RangeReach(0,").count(), 6, "{text}");
        // All six methods agree on the answer.
        let trues = text.matches("= true").count();
        let falses = text.matches("= false").count();
        assert!(trues == 6 || falses == 6, "methods disagree:\n{text}");
    }
}
