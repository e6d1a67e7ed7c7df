//! Output checks that decide whether a unit failed.
//!
//! A simulator unit's fingerprint is a set of exact model outputs. It must
//! repeat bit for bit across the units of one run (the simulator is
//! deterministic) and match the values recorded here at the seed code:
//! the traffic counts do not depend on the seed, the makespan does and is
//! recorded for each of the `SIM_VARIANTS` inputs a seed selects. An
//! `rt_mix2` batch has no modeled makespan or flows; its traffic counts
//! are checked the same way.

use ovcomm_rt::RtOutput;
use ovcomm_simmpi::SimOutput;

use crate::workloads::{Workload, SIM_VARIANTS};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint {
    pub makespan_ns: u64,
    pub messages: u64,
    pub inter_bytes: u64,
    pub intra_bytes: u64,
    pub completed_flows: u64,
}

impl Fingerprint {
    pub fn of_sim<T>(out: &SimOutput<T>) -> Fingerprint {
        Fingerprint {
            makespan_ns: out.makespan.as_nanos(),
            messages: out.messages,
            inter_bytes: out.inter_node_bytes,
            intra_bytes: out.intra_node_bytes,
            completed_flows: out.net.completed_flows,
        }
    }

    pub fn of_rt<T>(out: &RtOutput<T>) -> Fingerprint {
        Fingerprint {
            makespan_ns: 0,
            messages: out.messages,
            inter_bytes: out.inter_node_bytes,
            intra_bytes: out.intra_node_bytes,
            completed_flows: 0,
        }
    }
}

/// What a unit must reproduce: the seed-independent counts (with
/// `makespan_ns` unused) and, on the simulator, the seed's makespan.
#[derive(Clone, Copy, Debug)]
pub struct Expected {
    pub counts: Fingerprint,
    pub makespan_ns: Option<u64>,
}

impl Expected {
    /// The record with one value off: the makespan by 1 ns where one is
    /// recorded, else the message count by one.
    pub fn corrupted(self) -> Expected {
        let mut bad = self;
        match &mut bad.makespan_ns {
            Some(ns) => *ns += 1,
            None => bad.counts.messages += 1,
        }
        bad
    }
}

const fn counts(messages: u64, inter_bytes: u64, intra_bytes: u64, flows: u64) -> Fingerprint {
    Fingerprint {
        makespan_ns: 0,
        messages,
        inter_bytes,
        intra_bytes,
        completed_flows: flows,
    }
}

/// Values recorded at the seed code: the counts, then the makespan in ns
/// of each input variant (`seed % SIM_VARIANTS`).
fn recorded(w: Workload) -> (Fingerprint, &'static [u64]) {
    match w {
        Workload::Ndup25d => (
            counts(9200, 15_055_695_880, 748_109_120, 13200),
            &NDUP25D_MAKESPAN_NS,
        ),
        Workload::Sync2500 => (
            counts(108_672, 302_144, 72768, 154_632),
            &SYNC2500_MAKESPAN_NS,
        ),
        // No modeled makespan on `rt`.
        Workload::RtMix2 => (counts(7352, 160_432_128, 0, 0), &[]),
    }
}

pub fn expected(w: Workload, seed: u64) -> Expected {
    let (counts, makespans) = recorded(w);
    Expected {
        counts,
        makespan_ns: makespans.get((seed % SIM_VARIANTS) as usize).copied(),
    }
}

const NDUP25D_MAKESPAN_NS: [u64; SIM_VARIANTS as usize] = [
    51_622_247, 51_717_794, 51_620_123, 51_642_207, 51_709_920, 51_647_276, 51_654_658, 51_661_930,
    51_678_666, 51_641_677, 51_664_068, 51_709_637, 51_646_287, 51_644_868, 51_663_334, 51_649_422,
    51_630_899, 51_632_713, 51_693_088, 51_659_030, 51_668_668, 51_627_720, 51_635_351, 51_658_334,
    51_650_389, 51_629_773, 51_643_777, 51_618_786, 51_663_131, 51_629_025, 51_661_108, 51_631_239,
    51_652_173, 51_678_306, 51_641_736, 51_613_997, 51_693_063, 51_652_420, 51_638_512, 51_659_724,
    51_628_483, 51_659_772, 51_645_427, 51_655_463, 51_676_731, 51_673_346, 51_641_594, 51_628_390,
    51_666_988, 51_643_233, 51_649_421, 51_633_210, 51_648_391, 51_661_431, 51_624_457, 51_658_209,
    51_622_832, 51_626_352, 51_650_310, 51_649_535, 51_629_303, 51_622_878, 51_643_617, 51_665_308,
];
const SYNC2500_MAKESPAN_NS: [u64; SIM_VARIANTS as usize] = [
    213_707, 213_848, 213_780, 213_766, 213_794, 213_847, 213_697, 213_619, 213_754, 213_659,
    213_714, 213_810, 213_585, 213_785, 213_882, 213_702, 213_663, 213_600, 213_615, 213_611,
    213_675, 213_746, 213_842, 213_706, 213_753, 213_717, 213_813, 213_600, 213_761, 213_823,
    213_761, 213_713, 213_707, 213_799, 213_739, 213_784, 213_795, 213_865, 213_839, 213_644,
    213_716, 213_548, 213_724, 213_731, 213_744, 213_726, 213_856, 213_605, 213_723, 213_786,
    213_788, 213_750, 213_650, 213_697, 213_674, 213_767, 213_693, 213_702, 213_666, 213_781,
    213_868, 213_785, 213_687, 213_671,
];

/// Every way `got` disagrees with the run's first unit or the record.
pub fn mismatches(got: &Fingerprint, first: &Fingerprint, want: &Expected) -> Vec<String> {
    let mut bad = Vec::new();
    if got != first {
        bad.push(format!(
            "fingerprint {got:?} differs from the run's first unit {first:?}"
        ));
    }
    let got_counts = Fingerprint {
        makespan_ns: 0,
        ..*got
    };
    if got_counts != want.counts {
        bad.push(format!(
            "counts {got_counts:?} differ from the recorded {:?}",
            want.counts
        ));
    }
    if let Some(ns) = want.makespan_ns.filter(|&ns| ns != got.makespan_ns) {
        bad.push(format!(
            "makespan {} ns differs from the recorded {ns} ns",
            got.makespan_ns
        ));
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_records_fail_and_true_ones_pass() {
        let fp = Fingerprint {
            makespan_ns: 123,
            messages: 10,
            inter_bytes: 80,
            intra_bytes: 8,
            completed_flows: 4,
        };
        let want = Expected {
            counts: Fingerprint {
                makespan_ns: 0,
                ..fp
            },
            makespan_ns: Some(123),
        };
        assert!(mismatches(&fp, &fp, &want).is_empty());
        assert_eq!(mismatches(&fp, &fp, &want.corrupted()).len(), 1);
        let mut bad_counts = want;
        bad_counts.counts.messages += 1;
        assert_eq!(mismatches(&fp, &fp, &bad_counts).len(), 1);
        let no_makespan = Expected {
            makespan_ns: None,
            ..want
        };
        assert_eq!(mismatches(&fp, &fp, &no_makespan.corrupted()).len(), 1);
        let drifted = Fingerprint {
            makespan_ns: 124,
            ..fp
        };
        assert_eq!(mismatches(&drifted, &fp, &want).len(), 2);
    }
}
