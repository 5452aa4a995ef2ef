//! SIGPROF sampling profiler for one workload: replays one profile's op
//! stream under one system through `sim::run_trace`, over and over for a
//! fixed wall time, while `setitimer(ITIMER_PROF)` interrupts it once per
//! millisecond of process CPU time.
//!
//! ```text
//! sample_profile --profile NAME --system LABEL [--seconds S]
//! ```
//!
//! `NAME` and `LABEL` are what `minesweeper-sim run` accepts: a profile
//! (`omnetpp`, `glibc-simple`, ...) and a system label or alias
//! (`baseline`, `minesweeper`, `markus`, ...). The op stream uses seed 5.
//! Default 5 s, at most 60 s.
//!
//! The signal handler records the interrupted PC, then walks the frame
//! pointer chain while it stays inside the main thread's stack (bounded by
//! the interrupted stack pointer below and the `[stack]` mapping's top
//! above, so it reads only live stack). stdout gets one sample per line,
//! leaf first and callers after it, each a hex offset from the
//! executable's load base; `?` stands for an address outside the
//! executable (libc, the vDSO). A summary line goes to stderr, naming the
//! text mapping's offset range. Callers resolve only in a frame-pointer
//! build (`RUSTFLAGS="-C force-frame-pointers=yes"`); the README shows the
//! build and the symbolizer pipeline.
//!
//! Exit codes: 0 on success, 1 on bad arguments or a target other than
//! x86-64 Linux.

use std::process::ExitCode;

use sim::System;
use workloads::Profile;

const USAGE: &str = "usage: sample_profile --profile NAME --system LABEL [--seconds S]";

/// Seed of the replayed op stream.
const SEED: u64 = 5;

/// Longest run `--seconds` accepts; it sizes the sample buffer (about
/// 40 MB at the limit).
const MAX_SECONDS: f64 = 60.0;

/// Parsed command line.
struct Opts {
    profile: Profile,
    system: System,
    seconds: f64,
}

/// Parses the arguments after the program name.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let (mut profile, mut system, mut seconds) = (None, None, 5.0);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--profile" => {
                profile = Some(ms_cli::profile_by_name(&value).map_err(|e| e.to_string())?);
            }
            "--system" => {
                system = Some(ms_cli::system_by_label(&value).map_err(|e| e.to_string())?);
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= MAX_SECONDS)
                    .ok_or(format!(
                        "--seconds needs a number in (0, {MAX_SECONDS}], got {value:?}"
                    ))?;
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Opts {
        profile: profile.ok_or("--profile is required")?,
        system: system.ok_or("--system is required")?,
        seconds,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    run(opts)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn run(_: Opts) -> ExitCode {
    eprintln!("error: sample_profile reads x86-64 Linux signal frames only");
    ExitCode::FAILURE
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn run(opts: Opts) -> ExitCode {
    use std::io::Write;
    use std::time::{Duration, Instant};

    let Opts {
        profile,
        system,
        seconds,
    } = opts;
    let ops: Vec<workloads::Op> = workloads::TraceGen::new(&profile, SEED).collect();
    // Room for 1.25 samples per wall millisecond: the 1 kHz timer plus some
    // helper-thread CPU. Samples past it are counted as dropped.
    sampler::start((seconds * 1250.0) as usize + 1024);
    let (t, mut reps) = (Instant::now(), 0);
    while reps == 0 || t.elapsed() < Duration::from_secs_f64(seconds) {
        sim::run_trace(&profile, system, SEED, ops.iter().copied());
        reps += 1;
    }
    let samples = sampler::stop();

    let exe = sampler::exe_mappings();
    let offset = |a: usize| match exe.image.contains(&a) {
        true => format!("{:x}", a - exe.base),
        false => "?".to_string(),
    };
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let mut in_text = 0;
    for frames in &samples {
        in_text += usize::from(exe.text.contains(&frames[0]));
        let line: Vec<String> = frames.iter().map(|&a| offset(a)).collect();
        writeln!(out, "{}", line.join(" ")).expect("stdout is writable");
    }
    out.flush().expect("stdout is writable");
    eprintln!(
        "sample_profile: {} samples ({} dropped), {reps} reps of {} x {} in {:.1} s; \
         text {:#x}-{:#x}; {in_text} leaves in text",
        samples.len(),
        sampler::dropped(),
        profile.name,
        system.label(),
        t.elapsed().as_secs_f64(),
        exe.text.start - exe.base,
        exe.text.end - exe.base,
    );
    ExitCode::SUCCESS
}

/// The `setitimer` + `sigaction` sampler. The handler touches only
/// atomics and a buffer allocated before the timer is armed.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::ops::Range;
    use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Most frames one sample keeps, leaf included.
    const DEPTH: usize = 64;
    /// Words per sample record: a frame count, then the frames.
    const RECORD: usize = DEPTH + 1;
    /// Byte offsets of RSP, RIP and RBP in glibc's x86-64 `ucontext_t`:
    /// `uc_mcontext.gregs` starts at 40, and `REG_RSP`, `REG_RIP` and
    /// `REG_RBP` are indices 15, 16 and 10.
    const UC_RSP: usize = 40 + 15 * 8;
    const UC_RIP: usize = 40 + 16 * 8;
    const UC_RBP: usize = 40 + 10 * 8;

    #[derive(Clone, Copy)]
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        it_interval: Timeval,
        it_value: Timeval,
    }

    /// glibc's x86-64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        sa_sigaction: usize,
        sa_mask: [u64; 16],
        sa_flags: i32,
        sa_restorer: usize,
    }

    extern "C" {
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    }

    // `start` sets BUF and the stack bounds, then publishes them with its
    // Release store of RECORDS; the handler's Acquire load of RECORDS pairs
    // with it. NEXT only hands out record indices.
    static BUF: AtomicPtr<AtomicUsize> = AtomicPtr::new(std::ptr::null_mut());
    static RECORDS: AtomicUsize = AtomicUsize::new(0);
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    static STACK_LO: AtomicUsize = AtomicUsize::new(0);
    static STACK_HI: AtomicUsize = AtomicUsize::new(0);

    /// Start, end and file offset of every `/proc/self/maps` line that
    /// `pick` accepts (it sees the permissions, file offset and path).
    fn maps(mut pick: impl FnMut(&str, usize, &str) -> bool) -> Vec<(usize, usize, usize)> {
        let text = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps is readable");
        text.lines()
            .filter_map(|line| {
                let mut f = line.split_whitespace();
                let (range, perms, off) = (f.next()?, f.next()?, f.next()?);
                let path = f.nth(2).unwrap_or("");
                let (lo, hi) = range.split_once('-')?;
                let lo = usize::from_str_radix(lo, 16).ok()?;
                let hi = usize::from_str_radix(hi, 16).ok()?;
                let off = usize::from_str_radix(off, 16).ok()?;
                pick(perms, off, path).then_some((lo, hi, off))
            })
            .collect()
    }

    /// The executable's mappings: its load base, the whole image and the
    /// text (executable) mapping.
    pub(crate) struct Exe {
        pub(crate) base: usize,
        pub(crate) image: Range<usize>,
        pub(crate) text: Range<usize>,
    }

    pub(crate) fn exe_mappings() -> Exe {
        let exe = std::fs::read_link("/proc/self/exe").expect("/proc/self/exe resolves");
        let exe = exe.to_string_lossy();
        let all = maps(|_, _, path| path == exe);
        let text = maps(|perms, _, path| path == exe && perms.contains('x'));
        let &(lo, _, off) = all.iter().min().expect("the executable is mapped");
        let hi = all
            .iter()
            .map(|m| m.1)
            .max()
            .expect("the executable is mapped");
        let &(text_lo, text_hi, _) = text.first().expect("the executable has a text mapping");
        Exe {
            base: lo - off,
            image: lo..hi,
            text: text_lo..text_hi,
        }
    }

    extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, uctx: *mut c_void) {
        let i = NEXT.fetch_add(1, Ordering::Relaxed);
        if i >= RECORDS.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: `i` is below the record count, so the record lies inside
        // the buffer `start` leaked; each record is claimed by one handler.
        let rec = unsafe {
            std::slice::from_raw_parts(BUF.load(Ordering::Relaxed).add(i * RECORD), RECORD)
        };
        // SAFETY: the kernel passes a valid `ucontext_t` with SA_SIGINFO;
        // the offsets are glibc's x86-64 layout.
        let reg = |off: usize| unsafe {
            (uctx as *const u8)
                .add(off)
                .cast::<usize>()
                .read_unaligned()
        };
        let (sp, mut fp) = (reg(UC_RSP), reg(UC_RBP));
        rec[1].store(reg(UC_RIP), Ordering::Relaxed);
        let mut n = 1;
        let (lo, hi) = (
            STACK_LO.load(Ordering::Relaxed),
            STACK_HI.load(Ordering::Relaxed),
        );
        if (lo..hi).contains(&sp) {
            // Every read is in [sp, hi): the main thread's live stack.
            while n < DEPTH && fp >= sp && fp % 8 == 0 && fp <= hi - 16 {
                // SAFETY: `fp` and `fp + 8` lie in the live main stack.
                let (next, ret) = unsafe { (*(fp as *const usize), *(fp as *const usize).add(1)) };
                if ret == 0 {
                    break;
                }
                rec[1 + n].store(ret, Ordering::Relaxed);
                n += 1;
                if next <= fp {
                    break;
                }
                fp = next;
            }
        }
        // Pairs with the Acquire load in `stop`: a nonzero count publishes
        // the frames before it.
        rec[0].store(n, Ordering::Release);
    }

    fn arm(usec: i64) {
        let t = Timeval {
            tv_sec: 0,
            tv_usec: usec,
        };
        let it = Itimerval {
            it_interval: t,
            it_value: t,
        };
        // SAFETY: plain FFI call with a valid `itimerval`.
        let rc = unsafe { setitimer(ITIMER_PROF, &it, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer failed");
    }

    /// Allocates room for `records` samples, installs the handler and arms
    /// a 1 kHz CPU-time timer.
    pub(crate) fn start(records: usize) {
        let &(lo, hi, _) = maps(|_, _, path| path == "[stack]")
            .first()
            .expect("a [stack] mapping");
        STACK_LO.store(lo, Ordering::Relaxed);
        STACK_HI.store(hi, Ordering::Relaxed);
        let buf: Box<[AtomicUsize]> = (0..records * RECORD).map(|_| AtomicUsize::new(0)).collect();
        BUF.store(Box::leak(buf).as_mut_ptr(), Ordering::Relaxed);
        RECORDS.store(records, Ordering::Release);
        let act = SigAction {
            sa_sigaction: on_sigprof as extern "C" fn(i32, *mut c_void, *mut c_void) as usize,
            sa_mask: [0; 16],
            sa_flags: SA_SIGINFO | SA_RESTART,
            sa_restorer: 0,
        };
        // SAFETY: `act` is a valid glibc `struct sigaction`; the handler is
        // async-signal-safe (atomics and pre-allocated memory only).
        let rc = unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction failed");
        arm(1000);
    }

    /// Disarms the timer and returns every complete sample, leaf first.
    pub(crate) fn stop() -> Vec<Vec<usize>> {
        arm(0);
        let taken = NEXT
            .load(Ordering::Relaxed)
            .min(RECORDS.load(Ordering::Relaxed));
        // SAFETY: `start` leaked a buffer of `RECORDS * RECORD` words on
        // this thread, and `taken <= RECORDS`.
        let buf =
            unsafe { std::slice::from_raw_parts(BUF.load(Ordering::Relaxed), taken * RECORD) };
        buf.chunks(RECORD)
            .filter_map(|rec| {
                let n = rec[0].load(Ordering::Acquire);
                (n > 0).then(|| {
                    rec[1..=n]
                        .iter()
                        .map(|a| a.load(Ordering::Relaxed))
                        .collect()
                })
            })
            .collect()
    }

    /// Samples that found the buffer full.
    pub(crate) fn dropped() -> usize {
        NEXT.load(Ordering::Relaxed)
            .saturating_sub(RECORDS.load(Ordering::Relaxed))
    }
}
