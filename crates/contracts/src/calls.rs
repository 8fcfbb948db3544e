//! Workload call templates.
//!
//! Maps a DApp plus a transaction sequence number to the concrete call a
//! Diablo Secondary issues: entry point, arguments, payload size. The
//! sequence number deterministically varies arguments (customer
//! positions for Mobility, stock rotation for the Exchange when no
//! specific stock stream is requested) so repeated runs are identical.

use diablo_vm::Word;

use crate::exchange::Stock;
use crate::{mobility, videosharing, DApp};

/// One concrete contract call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSpec {
    /// Entry point name.
    pub entry: &'static str,
    /// Call arguments.
    pub args: Vec<Word>,
    /// Opaque payload bytes shipped with the call (video data).
    pub payload_bytes: u64,
}

impl CallSpec {
    /// Approximate wire size of the transaction carrying this call, in
    /// bytes (signature + header + args + payload).
    pub fn wire_bytes(&self) -> u64 {
        // 64-byte signature, ~40-byte header, 8 bytes per argument.
        112 + 8 * self.args.len() as u64 + self.payload_bytes
    }
}

/// The default entry point of a DApp's workload transactions.
pub fn default_entry(dapp: DApp) -> &'static str {
    match dapp {
        DApp::Exchange => Stock::Apple.entry(),
        DApp::Gaming => "update",
        DApp::WebService => "add",
        DApp::Mobility => "checkDistance",
        DApp::VideoSharing => "upload",
    }
}

/// What a call's cost class depends on, known without building the
/// call: both [`CallSpec`] builders are filled in from one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallShape {
    /// Entry point name.
    pub entry: &'static str,
    /// Number of arguments the built call carries.
    pub argc: usize,
    /// Opaque payload bytes shipped with the call.
    pub payload_bytes: u64,
}

/// The shape of `entry` called with `argc` arguments: an `upload` ships
/// a video, and one the spec gave no arguments takes the video's size.
fn shape(dapp: DApp, entry: &'static str, argc: usize) -> CallShape {
    let upload = dapp == DApp::VideoSharing && entry == "upload";
    CallShape {
        entry,
        argc: if upload && argc == 0 { 1 } else { argc },
        payload_bytes: if upload { videosharing::VIDEO_BYTES as u64 } else { 0 },
    }
}

/// The shape of [`call_for`]`(dapp, seq)`.
pub fn shape_for(dapp: DApp, seq: u64) -> CallShape {
    match dapp {
        // Without a per-stock stream, rotate over the GAFAM stocks.
        DApp::Exchange => shape(dapp, Stock::ALL[(seq % 5) as usize].entry(), 0),
        DApp::Gaming | DApp::Mobility => shape(dapp, default_entry(dapp), 2),
        // An upload's one argument is the implied one.
        DApp::WebService | DApp::VideoSharing => shape(dapp, default_entry(dapp), 0),
    }
}

/// The shape of [`call_for_entry`]`(dapp, entry, args)` for `argc`
/// arguments. An index past the DApp's entries means its default entry.
pub fn shape_for_entry(dapp: DApp, entry: u8, argc: usize) -> CallShape {
    let name = entries(dapp)
        .get(entry as usize)
        .copied()
        .unwrap_or_else(|| default_entry(dapp));
    shape(dapp, name, argc)
}

/// The `i`-th argument of a DApp's default call.
fn default_arg(dapp: DApp, seq: u64, i: usize) -> Word {
    match dapp {
        // Customers scattered deterministically over the grid.
        DApp::Mobility => {
            let step = [48_271, 69_621][i];
            (seq.wrapping_mul(step) % mobility::GRID as u64) as Word
        }
        DApp::VideoSharing => videosharing::VIDEO_BYTES,
        // The paper's workload invokes update(1, 1).
        DApp::Gaming => 1,
        DApp::Exchange | DApp::WebService => unreachable!("their default calls take none"),
    }
}

/// Builds the call of `shape`, arguments from `arg`.
fn build(shape: CallShape, arg: impl Fn(usize) -> Word) -> CallSpec {
    CallSpec {
        entry: shape.entry,
        args: (0..shape.argc).map(arg).collect(),
        payload_bytes: shape.payload_bytes,
    }
}

/// The call issued by the `seq`-th transaction of a DApp workload.
pub fn call_for(dapp: DApp, seq: u64) -> CallSpec {
    build(shape_for(dapp, seq), |i| default_arg(dapp, seq, i))
}

/// The callable entry points of a DApp, in a stable order (indices are
/// the wire encoding of an explicit function selection).
pub fn entries(dapp: DApp) -> &'static [&'static str] {
    match dapp {
        DApp::Exchange => &[
            "checkStock",
            "buyGoogle",
            "buyApple",
            "buyFacebook",
            "buyAmazon",
            "buyMicrosoft",
        ],
        DApp::Gaming => &["update"],
        DApp::WebService => &["add", "get"],
        DApp::Mobility => &["checkDistance"],
        DApp::VideoSharing => &["upload", "owner"],
    }
}

/// Resolves a function name to its entry index for a DApp.
pub fn entry_index(dapp: DApp, function: &str) -> Option<u8> {
    entries(dapp)
        .iter()
        .position(|&e| e == function)
        .map(|i| i as u8)
}

/// The call for an explicitly selected entry with explicit arguments
/// (the benchmark specification's `function: "update(1, 1)"` path).
pub fn call_for_entry(dapp: DApp, entry: u8, args: &[i64]) -> CallSpec {
    // Upload defaults its argument when the spec passes none.
    build(shape_for_entry(dapp, entry, args.len()), |i| {
        args.get(i).copied().unwrap_or_else(|| default_arg(dapp, 0, i))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_are_deterministic() {
        for dapp in DApp::ALL {
            assert_eq!(call_for(dapp, 42), call_for(dapp, 42));
        }
    }

    #[test]
    fn exchange_rotates_stocks() {
        let entries: Vec<&str> = (0..5).map(|s| call_for(DApp::Exchange, s).entry).collect();
        let mut unique = entries.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn mobility_args_stay_on_grid() {
        for seq in 0..1000 {
            let c = call_for(DApp::Mobility, seq);
            assert_eq!(c.entry, "checkDistance");
            assert!((0..mobility::GRID).contains(&c.args[0]));
            assert!((0..mobility::GRID).contains(&c.args[1]));
        }
    }

    #[test]
    fn video_calls_carry_payload() {
        let c = call_for(DApp::VideoSharing, 0);
        assert_eq!(c.payload_bytes, videosharing::VIDEO_BYTES as u64);
        assert!(c.wire_bytes() > 1024);
    }

    #[test]
    fn light_calls_are_small_on_the_wire() {
        let c = call_for(DApp::WebService, 0);
        assert!(c.wire_bytes() < 200);
    }

    #[test]
    fn entry_tables_resolve_every_paper_function() {
        assert_eq!(entry_index(DApp::Gaming, "update"), Some(0));
        assert_eq!(entry_index(DApp::Exchange, "buyApple"), Some(2));
        assert_eq!(entry_index(DApp::Mobility, "checkDistance"), Some(0));
        assert_eq!(entry_index(DApp::WebService, "add"), Some(0));
        assert_eq!(entry_index(DApp::VideoSharing, "upload"), Some(0));
        assert_eq!(entry_index(DApp::Exchange, "sellEverything"), None);
    }

    #[test]
    fn call_for_entry_honors_explicit_args() {
        let c = call_for_entry(DApp::Mobility, 0, &[4000, 7000]);
        assert_eq!(c.entry, "checkDistance");
        assert_eq!(c.args, vec![4000, 7000]);
        // Upload defaults its payload even when the spec passes no args.
        let u = call_for_entry(DApp::VideoSharing, 0, &[]);
        assert_eq!(u.payload_bytes, videosharing::VIDEO_BYTES as u64);
        assert_eq!(u.args, vec![videosharing::VIDEO_BYTES]);
    }

    /// The builders as they were spelled before the shape table, one
    /// literal per DApp: the oracle the table is checked against.
    fn spelled_out(dapp: DApp, seq: u64) -> CallSpec {
        let (entry, args, payload_bytes) = match dapp {
            DApp::Exchange => (Stock::ALL[(seq % 5) as usize].entry(), vec![], 0),
            DApp::Gaming => ("update", vec![1, 1], 0),
            DApp::WebService => ("add", vec![], 0),
            DApp::Mobility => {
                let cx = (seq.wrapping_mul(48_271) % mobility::GRID as u64) as Word;
                let cy = (seq.wrapping_mul(69_621) % mobility::GRID as u64) as Word;
                ("checkDistance", vec![cx, cy], 0)
            }
            DApp::VideoSharing => (
                "upload",
                vec![videosharing::VIDEO_BYTES],
                videosharing::VIDEO_BYTES as u64,
            ),
        };
        CallSpec {
            entry,
            args,
            payload_bytes,
        }
    }

    fn spelled_out_entry(dapp: DApp, entry: u8, args: &[i64]) -> CallSpec {
        let name = entries(dapp)
            .get(entry as usize)
            .copied()
            .unwrap_or_else(|| default_entry(dapp));
        let upload = dapp == DApp::VideoSharing && name == "upload";
        CallSpec {
            entry: name,
            args: if upload && args.is_empty() {
                vec![videosharing::VIDEO_BYTES]
            } else {
                args.to_vec()
            },
            payload_bytes: if upload { videosharing::VIDEO_BYTES as u64 } else { 0 },
        }
    }

    fn shape_of(call: &CallSpec) -> CallShape {
        CallShape {
            entry: call.entry,
            argc: call.args.len(),
            payload_bytes: call.payload_bytes,
        }
    }

    #[test]
    fn shapes_and_built_calls_agree_with_the_spelled_out_builders() {
        for dapp in DApp::ALL {
            for seq in 0..10_000 {
                let call = call_for(dapp, seq);
                assert_eq!(call, spelled_out(dapp, seq), "{dapp:?} seq {seq}");
                assert_eq!(shape_for(dapp, seq), shape_of(&call), "{dapp:?} seq {seq}");
            }
            // Every entry index, the out-of-range ones that fall back to
            // the default entry included.
            let known = entries(dapp).len() as u8;
            for entry in (0..known + 2).chain([u8::MAX]) {
                for args in [&[][..], &[7], &[7, -9]] {
                    let call = call_for_entry(dapp, entry, args);
                    let at = format!("{dapp:?} entry {entry} args {args:?}");
                    assert_eq!(call, spelled_out_entry(dapp, entry, args), "{at}");
                    assert_eq!(shape_for_entry(dapp, entry, args.len()), shape_of(&call), "{at}");
                }
            }
        }
    }

    #[test]
    fn gaming_call_matches_paper_spec() {
        // The paper's workload configuration invokes "update(1, 1)".
        let c = call_for(DApp::Gaming, 7);
        assert_eq!(c.entry, "update");
        assert_eq!(c.args, vec![1, 1]);
    }
}
