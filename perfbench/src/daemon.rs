//! The shipped `sibling-cli serve` daemon as a child process.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub endpoint: String,
}

impl Daemon {
    /// Spawns `cli serve ARGS…` and blocks until it prints its
    /// `listening ENDPOINT` readiness line. The daemon's stderr goes to
    /// `log`.
    pub fn spawn(cli: &Path, args: &[String], log: &Path) -> Result<Daemon, String> {
        let log_file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("daemon log {}: {e}", log.display()))?;
        let mut child = Command::new(cli)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let endpoint = match read {
            Ok(_) => line.trim().strip_prefix("listening ").map(str::to_string),
            Err(_) => None,
        };
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            endpoint: String::new(),
        };
        match endpoint {
            Some(endpoint) => {
                daemon.endpoint = endpoint;
                Ok(daemon)
            }
            None => {
                daemon.kill();
                Err(format!(
                    "serve {} exited before listening (see {})",
                    args.join(" "),
                    log.display()
                ))
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `VmHWM` from a `/proc/PID/status` file, in MiB.
pub fn peak_rss_mb(status: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status).map_err(|e| format!("{status}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{status}: no VmHWM line"))
}
