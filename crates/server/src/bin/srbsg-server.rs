//! The `srbsg-server` binary: parse flags, boot (recovering if a shelf
//! exists), serve until `SIGTERM`/`SIGINT`, drain, exit 0.

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use srbsg_server::{run, Endpoint, ServerConfig};

const USAGE: &str = "\
srbsg-server — crash-survivable Security RBSG serving binary

USAGE:
    srbsg-server [FLAGS]

FLAGS:
    --listen ENDPOINT      tcp:HOST:PORT or uds:PATH   [tcp:127.0.0.1:0]
    --data-dir DIR         shelf + sidecar directory   [srbsg-data]
    --banks N              bank count                  [4]
    --width W              2^W logical lines per bank  [8]
    --sub-regions R        Security RBSG sub-regions   [4]
    --seed S               base seed                   [0x5EC012B5]
    --fsync                fsync shelf saves (power-loss durability)
    --max-conns N          connection cap; each open
                           connection is one thread    [64]
    --idle-timeout-ms MS   idle connection timeout     [30000]
    --frame-timeout-ms MS  mid-frame (slow-loris) timeout [5000]
    -h, --help             this text

The server prints one line on startup:
    srbsg-server listening on <endpoint> pid=... generation=...
and writes the bound endpoint and pid to <data-dir>/endpoint and
<data-dir>/pid for harness discovery.
";

fn parse_args() -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => cfg.endpoint = Endpoint::parse(&next(&mut args, "--listen")?)?,
            "--data-dir" => cfg.data_dir = PathBuf::from(next(&mut args, "--data-dir")?),
            "--banks" => {
                cfg.banks = parse_num(&next(&mut args, "--banks")?, "--banks")?;
                if cfg.banks == 0 {
                    return Err("--banks must be at least 1".into());
                }
            }
            "--width" => cfg.width = parse_num(&next(&mut args, "--width")?, "--width")? as u32,
            "--sub-regions" => {
                cfg.sub_regions =
                    parse_num(&next(&mut args, "--sub-regions")?, "--sub-regions")? as u64
            }
            "--seed" => {
                let raw = next(&mut args, "--seed")?;
                cfg.seed = parse_seed(&raw)?;
            }
            "--fsync" => cfg.fsync = true,
            "--max-conns" => {
                cfg.max_conns = parse_num(&next(&mut args, "--max-conns")?, "--max-conns")?
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout = Duration::from_millis(parse_num(
                    &next(&mut args, "--idle-timeout-ms")?,
                    "--idle-timeout-ms",
                )? as u64)
            }
            "--frame-timeout-ms" => {
                cfg.frame_timeout = Duration::from_millis(parse_num(
                    &next(&mut args, "--frame-timeout-ms")?,
                    "--frame-timeout-ms",
                )? as u64)
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(cfg)
}

fn parse_num(raw: &str, flag: &str) -> Result<usize, String> {
    raw.parse()
        .map_err(|_| format!("{flag} must be an integer, got {raw:?}"))
}

fn parse_seed(raw: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    parsed.map_err(|_| format!("--seed must be an integer, got {raw:?}"))
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("srbsg-server: {e}");
            exit(2);
        }
    };
    match run(cfg) {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("srbsg-server: fatal: {e}");
            exit(1);
        }
    }
}
