//! Slow-but-obviously-correct reference simulator.
//!
//! The optimized engine in `dvbp-core` keeps incremental state: cached
//! per-bin load vectors, a sorted open-bin list maintained by binary
//! search, a vectorized residual mirror and a max-residual tree over it
//! (the fit index). This module re-derives every answer from first
//! principles instead, so that the two implementations can be compared
//! event by event:
//!
//! * the event order is rebuilt independently from the items' intervals
//!   (departures before arrivals at equal ticks, item order within each);
//! * a bin's **load** is recomputed at every query by summing the sizes
//!   of its still-active items — nothing is cached between events;
//! * a bin is **open** iff it currently holds at least one active item,
//!   which is re-derived per query the same way;
//! * every [`PolicyKind`] selection rule is re-implemented here directly
//!   from its §2.2/§7 definition, over those from-scratch answers, with
//!   no shared code with `dvbp-core`'s policy objects beyond the pure
//!   [`LoadMeasure`] comparison.
//!
//! The output is a full [`Packing`] (assignment, per-bin usage records,
//! decision trace), so the differential runner can require *exact*
//! equality with the optimized engine, not just equal costs.

use dvbp_core::{BinId, BinUsage, Instance, Item, LoadMeasure, Packing, PolicyKind, TraceEvent};
use dvbp_dimvec::DimVec;
use dvbp_sim::Time;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Ordering;

/// From-scratch world state: who is where, and who has departed.
struct World<'a> {
    instance: &'a Instance,
    /// `bin_items[b]` = items packed into bin `b`, in packing order.
    bin_items: Vec<Vec<usize>>,
    /// Set once the item's departure event has been processed.
    departed: Vec<bool>,
}

impl World<'_> {
    /// Recomputes the load of bin `b` by summing its active items' sizes.
    fn load(&self, b: usize) -> DimVec {
        let mut load = DimVec::zeros(self.instance.dim());
        for &i in &self.bin_items[b] {
            if !self.departed[i] {
                load.add_assign(&self.instance.items[i].size);
            }
        }
        load
    }

    /// A bin is open iff it still holds an active item (closed bins are
    /// never reused, so "ever opened and now empty" means closed).
    fn is_open(&self, b: usize) -> bool {
        self.bin_items[b].iter().any(|&i| !self.departed[i])
    }

    /// Open bins in opening (= id) order, recomputed from scratch.
    fn open_bins(&self) -> Vec<usize> {
        (0..self.bin_items.len())
            .filter(|&b| self.is_open(b))
            .collect()
    }

    /// Whether `size` fits into bin `b` alongside its active items.
    fn fits(&self, b: usize, size: &DimVec) -> bool {
        self.load(b).fits_with(size, &self.instance.capacity)
    }
}

/// Announced departure tick, as the clairvoyant policies define it.
fn announced_departure(item: &Item) -> Time {
    let dur = item
        .announced_duration
        .expect("clairvoyant reference requires announced durations");
    item.arrival.saturating_add(dur.max(1))
}

/// Geometric duration class `⌊log₂ d⌋` of an announced duration.
fn duration_class(item: &Item) -> u32 {
    let announced = item
        .announced_duration
        .expect("clairvoyant reference requires announced durations")
        .max(1);
    63 - announced.leading_zeros()
}

/// Re-implementation of each policy's selection rule and its (minimal,
/// inherently sequential) decision state. All loads and feasibility
/// checks go through [`World`]'s from-scratch recomputation.
enum RefPolicy {
    /// MRU order, front first; receiving bin moves to the front.
    MoveToFront { order: Vec<usize> },
    /// Earliest-opened open bin that fits.
    FirstFit,
    /// Single current bin; a new bin releases the old one forever.
    NextFit { current: Option<usize> },
    /// Most-loaded open bin that fits (ties keep the earliest bin).
    BestFit { measure: LoadMeasure },
    /// Least-loaded open bin that fits (ties keep the earliest bin).
    WorstFit { measure: LoadMeasure },
    /// Latest-opened open bin that fits.
    LastFit,
    /// Uniformly random feasible open bin; the RNG stream must match the
    /// optimized policy exactly (a draw happens only with ≥ 2 candidates).
    RandomFit { rng: StdRng },
    /// First Fit restricted to bins of the item's duration class.
    DurationClassFirstFit { class_of: Vec<u32> },
    /// Bin whose latest announced departure is nearest the item's own;
    /// ties prefer the fuller (L∞) bin, then the earlier bin.
    AlignedFit { latest_dep: Vec<Time> },
}

impl RefPolicy {
    fn new(kind: &PolicyKind) -> Self {
        match *kind {
            PolicyKind::MoveToFront => RefPolicy::MoveToFront { order: Vec::new() },
            PolicyKind::FirstFit => RefPolicy::FirstFit,
            PolicyKind::NextFit => RefPolicy::NextFit { current: None },
            PolicyKind::BestFit(measure) => RefPolicy::BestFit { measure },
            PolicyKind::WorstFit(measure) => RefPolicy::WorstFit { measure },
            PolicyKind::LastFit => RefPolicy::LastFit,
            PolicyKind::RandomFit { seed } => RefPolicy::RandomFit {
                rng: StdRng::seed_from_u64(seed),
            },
            PolicyKind::DurationClassFirstFit => RefPolicy::DurationClassFirstFit {
                class_of: Vec::new(),
            },
            PolicyKind::AlignedFit => RefPolicy::AlignedFit {
                latest_dep: Vec::new(),
            },
        }
    }

    /// The bin for `item`, or `None` to open a new one.
    fn choose(&mut self, world: &World<'_>, item: &Item) -> Option<usize> {
        let open = world.open_bins();
        match self {
            RefPolicy::MoveToFront { order } => {
                debug_assert_eq!(order.len(), open.len());
                order.iter().find(|&&b| world.fits(b, &item.size)).copied()
            }
            RefPolicy::FirstFit => open.iter().find(|&&b| world.fits(b, &item.size)).copied(),
            RefPolicy::NextFit { current } => match *current {
                Some(b) if world.fits(b, &item.size) => Some(b),
                _ => None,
            },
            RefPolicy::BestFit { measure } => {
                pick_by_load(world, &open, item, *measure, Ordering::Greater)
            }
            RefPolicy::WorstFit { measure } => {
                pick_by_load(world, &open, item, *measure, Ordering::Less)
            }
            RefPolicy::LastFit => open
                .iter()
                .rev()
                .find(|&&b| world.fits(b, &item.size))
                .copied(),
            RefPolicy::RandomFit { rng } => {
                let candidates: Vec<usize> = open
                    .iter()
                    .copied()
                    .filter(|&b| world.fits(b, &item.size))
                    .collect();
                match candidates.len() {
                    0 => None,
                    1 => Some(candidates[0]),
                    n => Some(candidates[rng.random_range(0..n)]),
                }
            }
            RefPolicy::DurationClassFirstFit { class_of } => {
                let class = duration_class(item);
                open.iter()
                    .find(|&&b| class_of[b] == class && world.fits(b, &item.size))
                    .copied()
            }
            RefPolicy::AlignedFit { latest_dep } => {
                let target = announced_departure(item);
                let mut best: Option<(usize, u64)> = None;
                for &b in &open {
                    if !world.fits(b, &item.size) {
                        continue;
                    }
                    let gap = latest_dep[b].abs_diff(target);
                    best = Some(match best {
                        None => (b, gap),
                        Some((cur, cur_gap)) => match gap.cmp(&cur_gap) {
                            Ordering::Less => (b, gap),
                            Ordering::Equal => {
                                match LoadMeasure::Linf.cmp_loads(
                                    world.load(b).as_slice(),
                                    world.load(cur).as_slice(),
                                    world.instance.capacity.as_slice(),
                                ) {
                                    Ordering::Greater => (b, gap),
                                    _ => (cur, cur_gap),
                                }
                            }
                            Ordering::Greater => (cur, cur_gap),
                        },
                    });
                }
                best.map(|(b, _)| b)
            }
        }
    }

    fn after_pack(&mut self, item: &Item, bin: usize, newly_opened: bool) {
        match self {
            RefPolicy::MoveToFront { order } => {
                if let Some(pos) = order.iter().position(|&b| b == bin) {
                    order.remove(pos);
                }
                order.insert(0, bin);
            }
            RefPolicy::NextFit { current } => *current = Some(bin),
            RefPolicy::DurationClassFirstFit { class_of } if newly_opened => {
                debug_assert_eq!(bin, class_of.len());
                class_of.push(duration_class(item));
            }
            RefPolicy::AlignedFit { latest_dep } => {
                let dep = announced_departure(item);
                if newly_opened {
                    debug_assert_eq!(bin, latest_dep.len());
                    latest_dep.push(dep);
                } else {
                    latest_dep[bin] = latest_dep[bin].max(dep);
                }
            }
            _ => {}
        }
    }

    fn on_close(&mut self, bin: usize) {
        match self {
            RefPolicy::MoveToFront { order } => order.retain(|&b| b != bin),
            RefPolicy::NextFit { current } if *current == Some(bin) => *current = None,
            _ => {}
        }
    }
}

/// Extremal-load pick shared by Best Fit (`want = Greater`) and Worst Fit
/// (`want = Less`); ties keep the earliest-opened bin.
fn pick_by_load(
    world: &World<'_>,
    open: &[usize],
    item: &Item,
    measure: LoadMeasure,
    want: Ordering,
) -> Option<usize> {
    let mut best: Option<usize> = None;
    for &b in open {
        if !world.fits(b, &item.size) {
            continue;
        }
        best = Some(match best {
            None => b,
            Some(cur) => {
                let ord = measure.cmp_loads(
                    world.load(b).as_slice(),
                    world.load(cur).as_slice(),
                    world.instance.capacity.as_slice(),
                );
                if ord == want {
                    b
                } else {
                    cur
                }
            }
        });
    }
    best
}

/// Runs `kind` over `instance` through the reference simulator.
///
/// The returned [`Packing`] has the same shape as the optimized engine's
/// (assignment, per-bin usage records, full trace) and must be *equal* to
/// it — that is the conformance property the differential runner checks.
///
/// # Panics
///
/// Panics if the policy names an infeasible bin (a reference bug) or if a
/// clairvoyant kind is run on an instance without announced durations.
#[must_use]
pub fn simulate(instance: &Instance, kind: &PolicyKind) -> Packing {
    // Event order, rebuilt independently of `dvbp_sim::timeline`:
    // (tick, departure-before-arrival, item index).
    let mut events: Vec<(Time, u8, usize)> = Vec::with_capacity(2 * instance.items.len());
    for (i, item) in instance.items.iter().enumerate() {
        assert!(item.departure > item.arrival, "item {i}: empty interval");
        events.push((item.arrival, 1, i));
        events.push((item.departure, 0, i));
    }
    events.sort_unstable();

    let n = instance.items.len();
    let mut world = World {
        instance,
        bin_items: Vec::new(),
        departed: vec![false; n],
    };
    let mut policy = RefPolicy::new(kind);
    let mut assignment: Vec<Option<usize>> = vec![None; n];
    let mut trace: Vec<TraceEvent> = Vec::new();

    for (time, is_arrival, i) in events {
        let item = &instance.items[i];
        if is_arrival == 1 {
            let (bin, opened_new) = match policy.choose(&world, item) {
                Some(b) => {
                    assert!(world.is_open(b), "reference chose closed bin {b}");
                    assert!(
                        world.fits(b, &item.size),
                        "reference chose infeasible bin {b}"
                    );
                    (b, false)
                }
                None => {
                    world.bin_items.push(Vec::new());
                    (world.bin_items.len() - 1, true)
                }
            };
            world.bin_items[bin].push(i);
            assignment[i] = Some(bin);
            trace.push(TraceEvent::Packed {
                time,
                item: i,
                bin: BinId(bin),
                opened_new,
            });
            policy.after_pack(item, bin, opened_new);
        } else {
            world.departed[i] = true;
            let bin = assignment[i].expect("departure before arrival");
            if !world.is_open(bin) {
                trace.push(TraceEvent::Closed {
                    time,
                    bin: BinId(bin),
                });
                policy.on_close(bin);
            }
        }
    }

    let bins: Vec<BinUsage> = world
        .bin_items
        .iter()
        .map(|items| BinUsage {
            opened: instance.items[items[0]].arrival,
            closed: items
                .iter()
                .map(|&i| instance.items[i].departure)
                .max()
                .expect("bins are opened by an item"),
            items: items.clone(),
        })
        .collect();

    Packing {
        assignment: assignment
            .into_iter()
            .map(|b| BinId(b.expect("every item is packed")))
            .collect(),
        bins,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(size: &[u64], a: u64, e: u64) -> Item {
        Item::new(DimVec::from_slice(size), a, e)
    }

    fn inst(cap: u64, items: Vec<Item>) -> Instance {
        Instance::new(DimVec::scalar(cap), items).unwrap()
    }

    #[test]
    fn first_fit_packs_like_the_textbook() {
        let i = inst(
            10,
            vec![item(&[6], 0, 9), item(&[6], 1, 9), item(&[4], 2, 5)],
        );
        let p = simulate(&i, &PolicyKind::FirstFit);
        assert_eq!(p.assignment, vec![BinId(0), BinId(1), BinId(0)]);
        p.verify(&i).unwrap();
    }

    #[test]
    fn closed_bins_are_never_reused() {
        // Item 0 departs at 2; the bin closes and item 1 (arriving at 2)
        // must open a fresh bin even though the old one would fit it.
        let i = inst(10, vec![item(&[5], 0, 2), item(&[5], 2, 4)]);
        let p = simulate(&i, &PolicyKind::FirstFit);
        assert_eq!(p.assignment, vec![BinId(0), BinId(1)]);
        assert_eq!(p.bins.len(), 2);
        assert_eq!(p.cost(), 4);
    }

    #[test]
    fn trace_orders_departures_before_arrivals() {
        let i = inst(10, vec![item(&[5], 0, 2), item(&[5], 2, 4)]);
        let p = simulate(&i, &PolicyKind::FirstFit);
        assert_eq!(
            p.trace,
            vec![
                TraceEvent::Packed {
                    time: 0,
                    item: 0,
                    bin: BinId(0),
                    opened_new: true
                },
                TraceEvent::Closed {
                    time: 2,
                    bin: BinId(0)
                },
                TraceEvent::Packed {
                    time: 2,
                    item: 1,
                    bin: BinId(1),
                    opened_new: true
                },
                TraceEvent::Closed {
                    time: 4,
                    bin: BinId(1)
                },
            ]
        );
    }

    #[test]
    fn move_to_front_prefers_recent_bin() {
        let i = inst(
            10,
            vec![item(&[6], 0, 9), item(&[6], 1, 9), item(&[4], 2, 5)],
        );
        let p = simulate(&i, &PolicyKind::MoveToFront);
        assert_eq!(p.assignment[2], BinId(1));
    }

    #[test]
    fn next_fit_sticks_to_current_bin() {
        let i = inst(
            10,
            vec![item(&[6], 0, 9), item(&[6], 1, 9), item(&[4], 2, 5)],
        );
        let p = simulate(&i, &PolicyKind::NextFit);
        // Bin 0 was released when bin 1 opened; the 4-unit item joins
        // bin 1 (current) even though bin 0 also fits.
        assert_eq!(p.assignment[2], BinId(1));
    }
}
