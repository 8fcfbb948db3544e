//! The five decentralized applications of the paper's §3, implemented as
//! real programs for the `diablo-vm` virtual machine.
//!
//! | DApp          | Contract                 | Trace    | Behaviour |
//! |---------------|--------------------------|----------|-----------|
//! | Exchange      | `ExchangeContractGafam`  | NASDAQ   | fungible-token counters, one per GAFAM stock |
//! | Gaming        | `DecentralizedDota`      | Dota 2   | moves 10 players on a 250×250 map with reflection |
//! | Web service   | `Counter`                | FIFA '98 | a highly contended counter |
//! | Mobility      | `ContractUber`           | Uber NYC | 10,000 Euclidean distances with Newton's integer √ |
//! | Video sharing | `DecentralizedYoutube`   | YouTube  | stores uploaded payloads, assigns the requester |
//!
//! Each DApp is *lowered* per VM flavor, mirroring the paper's Solidity /
//! PyTeal / Move sources: the AVM build of the Mobility DApp stores a
//! single driver and measures the distance to it 10,000 times (the
//! paper's PyTeal workaround for the key-value state model), and the AVM
//! build of the video-sharing DApp does not exist at all (state entries
//! are limited to 128 bytes), exactly as reported in §5.2.

#![warn(missing_docs)]

pub mod build;
pub mod calls;
pub mod exchange;
pub mod gaming;
pub mod isqrt;
pub mod mobility;
pub mod videosharing;
pub mod webservice;

pub use build::{build, Contract, Unsupported};
pub use calls::CallSpec;

use core::fmt;

/// One of the paper's five decentralized applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DApp {
    /// Decentralized exchange driven by the NASDAQ GAFAM trace.
    Exchange,
    /// Multiplayer game driven by the Dota 2 trace.
    Gaming,
    /// Decentralized web service driven by the FIFA '98 trace.
    WebService,
    /// Mobility service driven by the Uber trace (compute-intensive).
    Mobility,
    /// Video sharing driven by the YouTube trace (payload-heavy).
    VideoSharing,
}

impl DApp {
    /// All five DApps, in the paper's presentation order.
    pub const ALL: [DApp; 5] = [
        DApp::Exchange,
        DApp::Gaming,
        DApp::WebService,
        DApp::Mobility,
        DApp::VideoSharing,
    ];

    /// The short benchmark name.
    pub const fn name(self) -> &'static str {
        match self {
            DApp::Exchange => "exchange",
            DApp::Gaming => "gaming",
            DApp::WebService => "webservice",
            DApp::Mobility => "mobility",
            DApp::VideoSharing => "videosharing",
        }
    }

    /// The smart-contract name used in the paper.
    pub const fn contract_name(self) -> &'static str {
        match self {
            DApp::Exchange => "ExchangeContractGafam",
            DApp::Gaming => "DecentralizedDota",
            DApp::WebService => "Counter",
            DApp::Mobility => "ContractUber",
            DApp::VideoSharing => "DecentralizedYoutube",
        }
    }

    /// The real-application trace the DApp replays (Table 2).
    pub const fn workload_name(self) -> &'static str {
        match self {
            DApp::Exchange => "NASDAQ",
            DApp::Gaming => "Dota 2",
            DApp::WebService => "FIFA",
            DApp::Mobility => "Uber",
            DApp::VideoSharing => "YouTube",
        }
    }

    /// Parses a DApp from its short name, contract name or trace alias.
    pub fn parse(s: &str) -> Option<DApp> {
        let s = s.trim();
        // The paper's workload specification uses "dota" for the gaming
        // DApp; accept the trace names too.
        let aliases: &[(&str, DApp)] = &[
            ("dota", DApp::Gaming),
            ("fifa", DApp::WebService),
            ("uber", DApp::Mobility),
            ("youtube", DApp::VideoSharing),
            ("nasdaq", DApp::Exchange),
        ];
        DApp::ALL
            .iter()
            .copied()
            .find(|d| d.name().eq_ignore_ascii_case(s) || d.contract_name() == s)
            .or_else(|| {
                aliases
                    .iter()
                    .find(|(a, _)| a.eq_ignore_ascii_case(s))
                    .map(|&(_, d)| d)
            })
    }
}

impl fmt::Display for DApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for d in DApp::ALL {
            assert_eq!(DApp::parse(d.name()), Some(d));
            assert_eq!(DApp::parse(d.contract_name()), Some(d));
        }
    }

    #[test]
    fn paper_aliases_parse() {
        assert_eq!(DApp::parse("dota"), Some(DApp::Gaming));
        assert_eq!(DApp::parse("uber"), Some(DApp::Mobility));
        assert_eq!(DApp::parse("nope"), None);
    }

    #[test]
    fn contract_names_match_paper() {
        assert_eq!(DApp::Exchange.contract_name(), "ExchangeContractGafam");
        assert_eq!(DApp::Gaming.contract_name(), "DecentralizedDota");
        assert_eq!(DApp::Mobility.contract_name(), "ContractUber");
        assert_eq!(DApp::VideoSharing.contract_name(), "DecentralizedYoutube");
    }
}
