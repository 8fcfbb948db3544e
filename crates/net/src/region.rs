//! The ten AWS regions of the paper's evaluation (§5.1).

use core::fmt;

/// An AWS region used in the paper's geo-distributed deployments.
///
/// The discriminants index into the round-trip-time and bandwidth
/// matrices of [`crate::matrix`], in the same row/column order as the
/// paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Region {
    /// af-south-1 (Cape Town).
    CapeTown = 0,
    /// ap-northeast-1 (Tokyo).
    Tokyo = 1,
    /// ap-south-1 (Mumbai).
    Mumbai = 2,
    /// ap-southeast-2 (Sydney).
    Sydney = 3,
    /// eu-north-1 (Stockholm).
    Stockholm = 4,
    /// eu-south-1 (Milan).
    Milan = 5,
    /// me-south-1 (Bahrain).
    Bahrain = 6,
    /// sa-east-1 (São Paulo).
    SaoPaulo = 7,
    /// us-east-2 (Ohio).
    Ohio = 8,
    /// us-west-2 (Oregon).
    Oregon = 9,
}

impl Region {
    /// All ten regions, in Table 3 order.
    pub const ALL: [Region; 10] = [
        Region::CapeTown,
        Region::Tokyo,
        Region::Mumbai,
        Region::Sydney,
        Region::Stockholm,
        Region::Milan,
        Region::Bahrain,
        Region::SaoPaulo,
        Region::Ohio,
        Region::Oregon,
    ];

    /// Number of regions.
    pub const COUNT: usize = 10;

    /// The row/column index of this region in the Table 3 matrices.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The human-readable city name used in the paper.
    pub const fn city(self) -> &'static str {
        match self {
            Region::CapeTown => "Cape Town",
            Region::Tokyo => "Tokyo",
            Region::Mumbai => "Mumbai",
            Region::Sydney => "Sydney",
            Region::Stockholm => "Stockholm",
            Region::Milan => "Milan",
            Region::Bahrain => "Bahrain",
            Region::SaoPaulo => "Sao Paulo",
            Region::Ohio => "Ohio",
            Region::Oregon => "Oregon",
        }
    }

    /// The AWS availability-zone tag used in Diablo workload
    /// specifications (e.g. `us-east-2` for Ohio, cf. the paper's §4
    /// example configuration).
    pub const fn aws_zone(self) -> &'static str {
        match self {
            Region::CapeTown => "af-south-1",
            Region::Tokyo => "ap-northeast-1",
            Region::Mumbai => "ap-south-1",
            Region::Sydney => "ap-southeast-2",
            Region::Stockholm => "eu-north-1",
            Region::Milan => "eu-south-1",
            Region::Bahrain => "me-south-1",
            Region::SaoPaulo => "sa-east-1",
            Region::Ohio => "us-east-2",
            Region::Oregon => "us-west-2",
        }
    }

    /// Parses a region from either its city name or its AWS zone tag.
    pub fn parse(s: &str) -> Option<Region> {
        let needle = s.trim();
        Region::ALL
            .iter()
            .copied()
            .find(|r| r.city().eq_ignore_ascii_case(needle) || r.aws_zone() == needle)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.city())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_roundtrip() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(Region::ALL.len(), Region::COUNT);
    }

    #[test]
    fn parse_city_and_zone() {
        assert_eq!(Region::parse("Ohio"), Some(Region::Ohio));
        assert_eq!(Region::parse("us-east-2"), Some(Region::Ohio));
        assert_eq!(Region::parse("sao paulo"), Some(Region::SaoPaulo));
        assert_eq!(Region::parse("atlantis"), None);
    }

    #[test]
    fn display_matches_city() {
        assert_eq!(format!("{}", Region::Tokyo), "Tokyo");
    }
}
