//! Seeded input generators and the host-side oracles that go with them.
//!
//! The program under test receives only the generated request lines; the
//! seed never reaches it. Every generator also says what the correct
//! reply is, so each run checks its own outputs.

use std::collections::HashMap;

/// SplitMix64: tiny, seedable, and good enough to pick paths and keys.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; distinct `stream`s of one seed are
    /// independent (warm-up traffic must not shift the timed traffic).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What a reply must look like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The whole line.
    Exact(String),
    /// `prefix`, then end of line or a space (the kvstore's `STATS` line
    /// grows fields across releases; the counters it has always had must
    /// be exact).
    Fields(String),
}

impl Expect {
    pub fn matches(&self, reply: &str) -> bool {
        match self {
            Expect::Exact(line) => reply == line,
            Expect::Fields(prefix) => reply
                .strip_prefix(prefix.as_str())
                .is_some_and(|rest| rest.is_empty() || rest.starts_with(' ')),
        }
    }
}

/// A source of single-line requests with known correct replies.
pub trait Traffic {
    /// The next request line and the reply it must get. Requests are
    /// answered in the order they are issued (both servers accept
    /// connections first-in first-out), so a stateful oracle may advance
    /// its model here.
    fn next_request(&mut self) -> (String, Expect);
}

/// The four Figure 5 paths with their replies on webserver 5.1.5/5.1.6;
/// the last is the 404 path. Weights are out of 16.
const WEB_PATHS: [(&str, &str, u64); 4] = [
    ("/index.html", "200 <html>welcome</html>", 6),
    ("/about.html", "200 <html>about us</html>", 4),
    ("/data.json", "200 ok:true", 4),
    ("/missing.html", "404 /missing.html", 2),
];

/// Seeded `GET` mix over [`WEB_PATHS`].
pub struct WebTraffic {
    rng: Rng,
}

impl WebTraffic {
    pub fn new(seed: u64, stream: u64) -> WebTraffic {
        WebTraffic {
            rng: Rng::new(seed, stream),
        }
    }
}

impl Traffic for WebTraffic {
    fn next_request(&mut self) -> (String, Expect) {
        let mut pick = self.rng.below(16);
        for (path, reply, weight) in WEB_PATHS {
            if pick < weight {
                return (format!("GET {path}"), Expect::Exact(reply.to_string()));
            }
            pick -= weight;
        }
        unreachable!("weights sum to 16")
    }
}

/// Keys the kvstore traffic draws from. The guest store holds 64; 48
/// keeps its linear `Store.find` scan long enough to matter while never
/// filling it, so no `SET` is ever dropped.
pub const KV_KEYS: u64 = 48;

/// Seeded `SET`/`GET`/`DEL`/`STATS` traffic with a model of the store:
/// the oracle for every reply, across all 21 releases.
pub struct KvTraffic {
    rng: Rng,
    model: HashMap<u64, u64>,
    sets: u64,
    gets: u64,
    next_value: u64,
}

impl KvTraffic {
    pub fn new(seed: u64, stream: u64) -> KvTraffic {
        KvTraffic {
            rng: Rng::new(seed, stream),
            model: HashMap::new(),
            sets: 0,
            gets: 0,
            next_value: 0,
        }
    }

    /// Live keys in the model.
    #[cfg(test)]
    pub fn live_keys(&self) -> usize {
        self.model.len()
    }
}

impl Traffic for KvTraffic {
    fn next_request(&mut self) -> (String, Expect) {
        let op = self.rng.below(100);
        let key = self.rng.below(KV_KEYS);
        match op {
            // 42 % SET: a fresh value every time, so a stale read is caught.
            0..=41 => {
                self.next_value += 1;
                self.model.insert(key, self.next_value);
                self.sets += 1;
                (
                    format!("SET k{key:02} v{}", self.next_value),
                    Expect::Exact("OK stored".to_string()),
                )
            }
            // 48 % GET.
            42..=89 => {
                self.gets += 1;
                let reply = match self.model.get(&key) {
                    Some(v) => format!("VAL v{v}"),
                    None => "NIL".to_string(),
                };
                (format!("GET k{key:02}"), Expect::Exact(reply))
            }
            // 8 % DEL: keeps the live set a little below the key space.
            90..=97 => {
                let reply = if self.model.remove(&key).is_some() {
                    "OK deleted"
                } else {
                    "NIL"
                };
                (format!("DEL k{key:02}"), Expect::Exact(reply.to_string()))
            }
            // 2 % STATS: the counters survive every class update.
            _ => (
                "STATS".to_string(),
                Expect::Fields(format!("OK sets={} gets={}", self.sets, self.gets)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(t: &mut dyn Traffic, n: usize) -> Vec<(String, Expect)> {
        (0..n).map(|_| t.next_request()).collect()
    }

    #[test]
    fn generators_are_reproducible_and_seed_sensitive() {
        assert_eq!(
            lines(&mut WebTraffic::new(7, 1), 200),
            lines(&mut WebTraffic::new(7, 1), 200)
        );
        assert_ne!(
            lines(&mut WebTraffic::new(7, 1), 200),
            lines(&mut WebTraffic::new(8, 1), 200)
        );
        assert_ne!(
            lines(&mut WebTraffic::new(7, 1), 200),
            lines(&mut WebTraffic::new(7, 2), 200)
        );
        assert_eq!(
            lines(&mut KvTraffic::new(7, 1), 500),
            lines(&mut KvTraffic::new(7, 1), 500)
        );
        assert_ne!(
            lines(&mut KvTraffic::new(7, 1), 500),
            lines(&mut KvTraffic::new(8, 1), 500)
        );
    }

    #[test]
    fn web_mix_covers_all_four_paths_including_the_404() {
        let all = lines(&mut WebTraffic::new(1, 0), 400);
        for (path, reply, _) in WEB_PATHS {
            let want = (format!("GET {path}"), Expect::Exact(reply.to_string()));
            assert!(all.contains(&want), "{path} never drawn");
        }
    }

    #[test]
    fn kv_model_tracks_sets_deletes_and_counters() {
        let mut t = KvTraffic::new(3, 0);
        let mut store: HashMap<String, String> = HashMap::new();
        let (mut sets, mut gets) = (0u64, 0u64);
        for _ in 0..5_000 {
            let (line, expect) = t.next_request();
            let parts: Vec<&str> = line.split(' ').collect();
            let reply = match parts[0] {
                "SET" => {
                    sets += 1;
                    store.insert(parts[1].to_string(), parts[2].to_string());
                    "OK stored".to_string()
                }
                "GET" => {
                    gets += 1;
                    store
                        .get(parts[1])
                        .map_or("NIL".to_string(), |v| format!("VAL {v}"))
                }
                "DEL" => if store.remove(parts[1]).is_some() {
                    "OK deleted"
                } else {
                    "NIL"
                }
                .to_string(),
                _ => format!("OK sets={sets} gets={gets} dels=0"),
            };
            assert!(expect.matches(&reply), "{line}: {reply} vs {expect:?}");
        }
        assert!(t.live_keys() <= KV_KEYS as usize && t.live_keys() > 24);
    }

    #[test]
    fn fields_expectation_needs_a_field_boundary() {
        let e = Expect::Fields("OK sets=1 gets=2".to_string());
        assert!(e.matches("OK sets=1 gets=2"));
        assert!(e.matches("OK sets=1 gets=2 dels=0"));
        assert!(!e.matches("OK sets=1 gets=20"));
    }
}
