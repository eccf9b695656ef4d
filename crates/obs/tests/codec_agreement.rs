//! The streaming codec agrees with the `Value` tree, on the wire types
//! of `dvbp-serve` and the WAL: for `Request`, `Response`, `ObsEvent`
//! and `ServeStatus`,
//!
//! * `from_str::<T>(s)` and `from_content::<T>(from_str::<Value>(s)?)`
//!   give the same value, or both fail, on encoded values and on
//!   mutations of them (deleted and inserted characters, renamed,
//!   duplicated and dropped keys, rewritten numbers);
//! * `to_string(&v)` equals `to_string(&to_content(&v))`.

use dvbp_obs::{ObsEvent, ScoreBreakdown};
use dvbp_serve::protocol::{Request, Response, ServeStatus, ShadowStatus, ShardStatus};
use dvbp_serve::SwitchEntry;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt::Debug;

/// A xorshift stream seeded by the proptest case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flip(&mut self) -> bool {
        self.below(2) == 0
    }

    /// Small numbers mostly, with the edges of the range.
    fn int(&mut self) -> u64 {
        match self.below(8) {
            0 => u64::MAX,
            1 => 0,
            2 => self.next(),
            _ => self.below(1000),
        }
    }

    fn index(&mut self) -> usize {
        self.below(100_000) as usize
    }

    /// Ids with characters the writer must escape, and multi-byte ones.
    fn text(&mut self) -> String {
        const PARTS: [&str; 9] = ["vm", "-", "7", "\"", "\\", "\n", "é", "😀", "\u{1}"];
        (0..self.below(6))
            .map(|_| PARTS[self.below(PARTS.len() as u64) as usize])
            .collect()
    }

    fn sizes(&mut self) -> Vec<u64> {
        (0..self.below(4)).map(|_| self.int()).collect()
    }
}

fn request(g: &mut Gen) -> Request {
    match g.below(4) {
        0 => Request::Arrive {
            id: g.text(),
            size: g.sizes(),
            time: g.int(),
        },
        1 => Request::Depart {
            id: g.text(),
            time: g.int(),
        },
        2 => Request::Query,
        _ => Request::Shutdown,
    }
}

fn shard_status(g: &mut Gen) -> ShardStatus {
    ShardStatus {
        shard: g.index(),
        policy: g.text(),
        policy_switches: g.int(),
        switch_history: (0..g.below(3))
            .map(|_| SwitchEntry {
                time: g.int(),
                from: g.text(),
                to: g.text(),
            })
            .collect(),
        shadows: (0..g.below(3))
            .map(|_| ShadowStatus {
                policy: g.text(),
                cost: g.int().to_string(),
                lb: g.int().to_string(),
            })
            .collect(),
        arrivals: g.int(),
        departures: g.int(),
        active_items: g.int(),
        open_bins: g.int(),
        bins_opened: g.int(),
        migrations: g.int(),
        migration_cost: g.int(),
        usage_time: g.int().to_string(),
        wal_lines: g.int(),
        last_time: g.int(),
    }
}

fn serve_status(g: &mut Gen) -> ServeStatus {
    ServeStatus {
        policy: g.text(),
        meta: g.text(),
        policy_switches: g.int(),
        repack: g.text(),
        router: g.text(),
        shards: g.index(),
        arrivals: g.int(),
        departures: g.int(),
        active_items: g.int(),
        open_bins: g.int(),
        bins_opened: g.int(),
        migrations: g.int(),
        migration_cost: g.int(),
        usage_time: g.int().to_string(),
        wal_lines: g.int(),
        recovered_events: g.int(),
        last_time: g.int(),
        shutting_down: g.flip(),
        per_shard: (0..g.below(3)).map(|_| shard_status(g)).collect(),
    }
}

fn response(g: &mut Gen) -> Response {
    match g.below(5) {
        0 => Response::Placed {
            id: g.text(),
            shard: g.index(),
            item: g.index(),
            bin: g.index(),
            opened_new: g.flip(),
            time: g.int(),
        },
        1 => Response::Departed {
            id: g.text(),
            shard: g.index(),
            item: g.index(),
            bin: g.index(),
            closed: g.flip(),
            migrations: g.int(),
            time: g.int(),
        },
        2 => Response::Status(serve_status(g)),
        3 => Response::Error {
            code: g.text(),
            message: g.text(),
        },
        _ => Response::ShuttingDown,
    }
}

fn obs_event(g: &mut Gen) -> ObsEvent {
    match g.below(14) {
        0 => ObsEvent::Meta {
            algorithm: g.text(),
            d: g.index(),
            mu: g.int(),
            seed: g.int(),
        },
        1 => ObsEvent::RunStart {
            capacity: g.sizes(),
            items: g.index(),
        },
        2 => ObsEvent::Arrival {
            time: g.int(),
            item: g.index(),
            size: g.sizes(),
        },
        3 => ObsEvent::Ident {
            item: g.index(),
            id: g.text(),
        },
        4 => ObsEvent::Probe {
            time: g.int(),
            item: g.index(),
            bin: g.index(),
            fit: g.flip(),
            dim: g.flip().then(|| g.index()),
            need: g.int(),
            have: g.int(),
        },
        5 => ObsEvent::BinOpen {
            time: g.int(),
            bin: g.index(),
        },
        6 => ObsEvent::Place {
            time: g.int(),
            item: g.index(),
            bin: g.index(),
            opened_new: g.flip(),
            scanned: g.int(),
        },
        7 => ObsEvent::Decision {
            time: g.int(),
            item: g.index(),
            bin: g.index(),
            opened_new: g.flip(),
            probes: g.int(),
            score: match g.below(3) {
                0 => None,
                1 => Some(ScoreBreakdown::Frac {
                    num: g.int(),
                    den: g.int(),
                }),
                _ => Some(ScoreBreakdown::Bits { bits: g.int() }),
            },
        },
        8 => ObsEvent::Depart {
            time: g.int(),
            item: g.index(),
            bin: g.index(),
        },
        9 => ObsEvent::Migrate {
            time: g.int(),
            item: g.index(),
            from: g.index(),
            to: g.index(),
        },
        10 => ObsEvent::BinClose {
            time: g.int(),
            bin: g.index(),
        },
        11 => ObsEvent::PolicySwitch {
            time: g.int(),
            from: g.text(),
            to: g.text(),
        },
        _ => ObsEvent::RunEnd {
            time: g.int(),
            items: g.index(),
            bins: g.index(),
        },
    }
}

/// One edit of `text`: a deleted or inserted character, a renamed,
/// duplicated or dropped key, or a rewritten number.
fn mutate(g: &mut Gen, text: &str) -> String {
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let at = chars[g.below(chars.len() as u64) as usize].0;
    let mut out = text.to_string();
    match g.below(7) {
        0 => {
            out.remove(at);
        }
        1 => {
            const TOKENS: [&str; 10] = ["{", "}", "[", "]", ",", ":", "\"", "-", "0", " "];
            out.insert_str(at, TOKENS[g.below(TOKENS.len() as u64) as usize]);
        }
        2 => out = out.replacen("\"id\"", "\"ID\"", 1),
        3 => out = out.replacen("\"time\":", "\"time\":7,\"time\":", 1),
        4 => {
            // Drop the first `"key":value,` pair that has a plain value.
            if let Some(start) = out.find(",\"") {
                if let Some(len) = out[start + 1..].find(',') {
                    out.replace_range(start..start + 1 + len, "");
                }
            }
        }
        5 => {
            const NUMBERS: [&str; 6] = ["-0", "1.0", "1e2", "007", "-1", "18446744073709551616"];
            if let Some(digit) = out.find(|c: char| c.is_ascii_digit()) {
                out.insert_str(digit, NUMBERS[g.below(NUMBERS.len() as u64) as usize]);
            }
        }
        _ => out = out.replacen(':', ":null,\"x\":", 1),
    }
    out
}

/// Both read paths on `text`.
fn check_reads<T>(text: &str) -> Result<(), TestCaseError>
where
    T: for<'de> Deserialize<'de> + PartialEq + Debug,
{
    let direct = serde_json::from_str::<T>(text);
    let via_tree =
        serde_json::from_str::<Value>(text).and_then(serde::from_content::<T, serde_json::Error>);
    match (&direct, &via_tree) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(_), Err(_)) => {}
        _ => {
            return Err(TestCaseError::fail(format!(
                "{text:?}: direct {direct:?}, via Value {via_tree:?}"
            )))
        }
    }
    Ok(())
}

/// Both write paths on `value`, then both read paths on its text and on
/// three mutations of it.
fn check<T>(g: &mut Gen, value: &T) -> Result<(), TestCaseError>
where
    T: Serialize + for<'de> Deserialize<'de> + PartialEq + Debug,
{
    let text = serde_json::to_string(value).unwrap();
    let tree = serde_json::to_string(&serde::to_content(value)).unwrap();
    prop_assert_eq!(&text, &tree);
    check_reads::<T>(&text)?;
    for _ in 0..3 {
        check_reads::<T>(&mutate(g, &text))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn requests_read_and_write_the_same_on_both_paths(seed in 1u64..u64::MAX) {
        let mut g = Gen(seed);
        let value = request(&mut g);
        check(&mut g, &value)?;
    }

    #[test]
    fn responses_read_and_write_the_same_on_both_paths(seed in 1u64..u64::MAX) {
        let mut g = Gen(seed);
        let value = response(&mut g);
        check(&mut g, &value)?;
    }

    #[test]
    fn obs_events_read_and_write_the_same_on_both_paths(seed in 1u64..u64::MAX) {
        let mut g = Gen(seed);
        let value = obs_event(&mut g);
        check(&mut g, &value)?;
    }

    #[test]
    fn serve_status_reads_and_writes_the_same_on_both_paths(seed in 1u64..u64::MAX) {
        let mut g = Gen(seed);
        let value = serve_status(&mut g);
        check(&mut g, &value)?;
    }
}
