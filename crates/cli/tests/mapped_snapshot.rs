//! A served snapshot is a memory map of the file's inode, so how the file is
//! replaced decides whether the server survives it:
//!
//! * replaced by rename (`gsr build --save` writes a staging file and renames
//!   it over the target): the served inode lives on, unlinked, and every
//!   answer stays right;
//! * truncated in place: the mapped pages are gone, and the next query that
//!   touches them kills the server with `SIGBUS` before it can reply.
//!
//! The test drives the `gsr` binary over a loopback socket. It waits for the
//! `listening on` line and bounds every socket read with a timeout; it never
//! sleeps.
#![cfg(target_os = "linux")]

use gsr_datagen::faults::ScratchDir;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

const SIGBUS: i32 = 7;

/// Queries whose answers are checked: one vertex against the whole space
/// and a window far outside it, and a second vertex against a small window.
const QUERIES: [&str; 3] = ["0 -1e9 -1e9 1e9 1e9", "0 1e8 1e8 1e8 1e8", "7 100 100 300 300"];

fn gsr(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_gsr")).args(args).output().expect("gsr runs");
    assert!(out.status.success(), "gsr {args:?}: {}", String::from_utf8_lossy(&out.stderr));
}

/// The `TRUE`/`FALSE` replies `gsr query` gives for [`QUERIES`].
fn expected_replies(net: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gsr"))
        .args(["query", net, "--method", "3dreach"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("gsr query runs");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(QUERIES.join("\n").as_bytes()).expect("queries written");
    drop(stdin);
    let out = child.wait_with_output().expect("gsr query exits");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let replies: Vec<String> = text
        .lines()
        .filter_map(|l| l.split_once(" = "))
        .map(|(_, answer)| if answer.starts_with("true") { "TRUE" } else { "FALSE" }.to_string())
        .collect();
    assert_eq!(replies.len(), QUERIES.len(), "{text}");
    assert!(replies.iter().any(|r| r == "TRUE") && replies.iter().any(|r| r == "FALSE"));
    replies
}

/// A running `gsr serve`. Its log stays open: a server whose stdout reader
/// went away would end at its next log line.
struct Server {
    child: Child,
    _log: BufReader<ChildStdout>,
    addr: String,
}

/// Starts `gsr serve` on an OS-assigned port; the address comes from the
/// `listening on` line. The shell wrapper only turns core dumps off and
/// `exec`s, so the child's exit status is the server's.
fn serve(snap: &Path, cwd: &Path) -> Server {
    let mut child = Command::new("sh")
        .args(["-c", "ulimit -c 0 && exec \"$0\" \"$@\"", env!("CARGO_BIN_EXE_gsr")])
        .args(["serve", "--load", snap.to_str().expect("utf-8 path"), "--port", "0"])
        .args(["--threads", "1"])
        .current_dir(cwd)
        .stdout(Stdio::piped())
        .spawn()
        .expect("gsr serve starts");
    let mut log = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    while log.read_line(&mut line).expect("server log is utf-8") > 0 {
        if let Some(addr) = line.trim_end().strip_prefix("listening on ") {
            let addr = addr.to_string();
            return Server { child, _log: log, addr };
        }
        line.clear();
    }
    let status = child.wait().expect("gsr serve exits");
    panic!("gsr serve exited ({status}) before it listened");
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("server accepts");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout set");
    stream
}

/// Sends one line and reads one reply line.
fn ask(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(format!("{line}\n").as_bytes()).expect("request written");
    let mut reply = String::new();
    BufReader::new(&*stream).read_line(&mut reply).expect("reply within the timeout");
    reply.trim_end().to_string()
}

fn assert_answers(stream: &mut TcpStream, expected: &[String], when: &str) {
    for (q, want) in QUERIES.iter().zip(expected) {
        assert_eq!(&ask(stream, &format!("REACH {q}")), want, "{when}: REACH {q}");
    }
}

#[test]
fn rename_keeps_the_served_inode_and_truncation_kills_the_server() {
    let scratch = ScratchDir::new("gsr_mapped_snapshot").expect("scratch dir");
    let dir = scratch.path();
    let net = dir.join("net.gsr").to_string_lossy().into_owned();
    let snap = dir.join("idx.snap");
    let snap_arg = snap.to_string_lossy().into_owned();
    gsr(&["generate", "--preset", "yelp", "--scale", "0.02", "--out", &net]);
    gsr(&["build", &net, "--method", "3dreach", "--save", &snap_arg]);
    let expected = expected_replies(&net);

    let mut server = serve(&snap, dir);
    let mut stream = connect(&server.addr);
    assert_answers(&mut stream, &expected, "fresh load");

    // Replace by rename: the server still maps the old, now unlinked inode.
    gsr(&["build", &net, "--method", "3dreach", "--save", &snap_arg]);
    assert_answers(&mut stream, &expected, "after a re-save");
    // Map the new inode, the one the path names now.
    assert!(ask(&mut stream, &format!("RELOAD {snap_arg}")).starts_with("OK reload"));
    assert_answers(&mut stream, &expected, "after RELOAD");

    // Truncate in place: the mapping loses its pages under the server.
    std::fs::File::create(&snap).expect("truncated in place");
    stream.write_all(format!("REACH {}\n", QUERIES[0]).as_bytes()).expect("request written");
    let mut reply = Vec::new();
    match stream.read_to_end(&mut reply) {
        Ok(_) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => {
            let _ = server.child.kill();
            panic!("no reply and no close after truncation: {e}");
        }
    }
    let status = server.child.wait().expect("gsr serve exits");
    assert!(reply.is_empty(), "a reply came: {:?}", String::from_utf8_lossy(&reply));
    assert_eq!(status.signal(), Some(SIGBUS), "{status}");
}
