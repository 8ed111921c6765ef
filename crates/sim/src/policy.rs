//! The cache policy interface.

use lhr_trace::{ObjectId, Request, Time};

/// What a policy did with one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The object was in the cache; it is served locally.
    Hit,
    /// The object was missing, fetched from origin, and admitted.
    MissAdmitted,
    /// The object was missing, fetched from origin, and *not* admitted
    /// (admission-controlled policies only).
    MissBypassed,
}

impl Outcome {
    /// True for [`Outcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, Outcome::Hit)
    }
}

/// An online caching policy: decides admission and eviction request by
/// request, with no knowledge of the future.
///
/// # Contract
///
/// - `handle` must keep `used_bytes() ≤ capacity()` at all times (the
///   simulator asserts this in debug builds after every request).
/// - An object larger than the capacity must never be admitted.
/// - `contains(id)` must agree with what `handle` would report as a hit.
/// - Policies must be deterministic given their construction parameters
///   (randomized policies take an explicit seed).
/// - **The freshness stamp.** Every cached object carries the time it was
///   admitted or last revalidated, in the slot the policy keeps for it
///   anyway. The policy writes it: a `handle` that answers
///   [`Outcome::MissAdmitted`] stamps the new slot with `req.ts`; a hit
///   leaves the stamp alone, and so does any internal move (a promotion
///   between segments, a compaction of the slot array); eviction drops it,
///   so a later re-admission stamps afresh. The serving layer only reads
///   it ([`CachePolicy::admitted_at`], for the §6.1 freshness check) and
///   restarts it after a successful revalidation
///   ([`CachePolicy::restamp`]). It keeps no table of its own, so a policy
///   handed to a server already warm brings its own admission times with
///   it. Both methods are required: "never stale" is a behaviour, not a
///   default.
///
/// # Example
///
/// A minimal admit-all policy that evicts nothing and therefore only works
/// while everything fits (real policies evict inside `handle` to maintain
/// the capacity contract):
///
/// ```
/// use lhr_sim::{CachePolicy, Outcome};
/// use lhr_trace::{ObjectId, Request, Time};
/// use std::collections::HashMap;
///
/// struct Unbounded {
///     capacity: u64,
///     /// id → (size, freshness stamp).
///     cached: HashMap<ObjectId, (u64, Time)>,
/// }
///
/// impl CachePolicy for Unbounded {
///     fn name(&self) -> &str { "Unbounded" }
///     fn capacity(&self) -> u64 { self.capacity }
///     fn used_bytes(&self) -> u64 { self.cached.values().map(|&(size, _)| size).sum() }
///     fn admitted_at(&self, id: ObjectId) -> Option<Time> {
///         self.cached.get(&id).map(|&(_, at)| at)
///     }
///     fn restamp(&mut self, id: ObjectId, at: Time) {
///         if let Some(slot) = self.cached.get_mut(&id) {
///             slot.1 = at;
///         }
///     }
///     fn handle(&mut self, req: &Request) -> Outcome {
///         if self.cached.contains_key(&req.id) {
///             return Outcome::Hit;
///         }
///         if self.used_bytes() + req.size > self.capacity {
///             return Outcome::MissBypassed; // never overflow the contract
///         }
///         self.cached.insert(req.id, (req.size, req.ts));
///         Outcome::MissAdmitted
///     }
/// }
///
/// let mut policy = Unbounded { capacity: 1_000, cached: HashMap::new() };
/// let req = Request::new(Time::from_secs(3), 7, 100);
/// assert_eq!(policy.handle(&req), Outcome::MissAdmitted);
/// assert_eq!(policy.handle(&req), Outcome::Hit);
/// assert!(policy.contains(7));
/// assert_eq!(policy.admitted_at(7), Some(Time::from_secs(3)));
/// policy.restamp(7, Time::from_secs(9));
/// assert_eq!(policy.admitted_at(7), Some(Time::from_secs(9)));
/// policy.restamp(8, Time::from_secs(9)); // absent: nothing happens
/// assert!(!policy.contains(8));
/// ```
pub trait CachePolicy {
    /// Human-readable policy name, e.g. `"LRU"` or `"LHR"`.
    fn name(&self) -> &str;

    /// Total cache capacity in bytes.
    fn capacity(&self) -> u64;

    /// Bytes currently occupied by cached objects.
    fn used_bytes(&self) -> u64;

    /// When the cached copy of `id` was admitted or last revalidated (the
    /// freshness stamp of the contract above); `None` when `id` is not
    /// cached. Recency and every other piece of policy state are untouched.
    fn admitted_at(&self, id: ObjectId) -> Option<Time>;

    /// Restarts the freshness lifetime of `id`: its stamp becomes `at`.
    /// Nothing else about the object changes, and an `id` that is not
    /// cached is neither admitted nor an error.
    fn restamp(&mut self, id: ObjectId, at: Time);

    /// Whether `id` is currently cached.
    fn contains(&self, id: ObjectId) -> bool {
        self.admitted_at(id).is_some()
    }

    /// Processes one request and reports what happened.
    fn handle(&mut self, req: &Request) -> Outcome;

    /// Fused `contains` + `handle` for the cached case: if `req.id` is
    /// present, processes the request and returns its outcome; if absent,
    /// returns `None` **without consulting the policy** (no admission
    /// bookkeeping happens), so the caller can run its miss protocol and
    /// decide when — or whether — to call [`CachePolicy::handle`].
    ///
    /// The default is literally `contains` then `handle`; policies backed
    /// by a single-probe table override this so the serving hot path pays
    /// one lookup per hit instead of two. Overrides must behave
    /// observably identically to the default.
    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        self.contains(req.id).then(|| self.handle(req))
    }

    /// Number of evictions performed so far (optional statistic).
    fn evictions(&self) -> u64 {
        0
    }

    /// Approximate bytes of metadata the policy maintains beyond the cached
    /// payloads (Figure 9's "peak memory" accounting). Defaults to zero for
    /// policies whose metadata is negligible.
    fn metadata_overhead_bytes(&self) -> u64 {
        0
    }
}

/// Blanket impl so `Box<dyn CachePolicy>` is itself a policy; lets drivers
/// hold heterogeneous policies uniformly.
impl<P: CachePolicy + ?Sized> CachePolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }
    fn used_bytes(&self) -> u64 {
        (**self).used_bytes()
    }
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        (**self).admitted_at(id)
    }
    fn restamp(&mut self, id: ObjectId, at: Time) {
        (**self).restamp(id, at)
    }
    fn contains(&self, id: ObjectId) -> bool {
        (**self).contains(id)
    }
    fn handle(&mut self, req: &Request) -> Outcome {
        (**self).handle(req)
    }
    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        (**self).hit_check(req)
    }
    fn evictions(&self) -> u64 {
        (**self).evictions()
    }
    fn metadata_overhead_bytes(&self) -> u64 {
        (**self).metadata_overhead_bytes()
    }
}

/// The crate's one test double: admit everything, never evict, unbounded
/// capacity — oblivious to sharding, so sharded and plain counts agree.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use std::collections::hash_map::{Entry, HashMap};

    #[derive(Default)]
    pub(crate) struct Infinite {
        cached: HashMap<ObjectId, Time>,
        used: u64,
    }

    impl CachePolicy for Infinite {
        fn name(&self) -> &str {
            "infinite"
        }
        fn capacity(&self) -> u64 {
            u64::MAX
        }
        fn used_bytes(&self) -> u64 {
            self.used
        }
        fn admitted_at(&self, id: ObjectId) -> Option<Time> {
            self.cached.get(&id).copied()
        }
        fn restamp(&mut self, id: ObjectId, at: Time) {
            if let Some(stamp) = self.cached.get_mut(&id) {
                *stamp = at;
            }
        }
        fn handle(&mut self, req: &Request) -> Outcome {
            match self.cached.entry(req.id) {
                Entry::Occupied(_) => Outcome::Hit,
                Entry::Vacant(slot) => {
                    slot.insert(req.ts);
                    self.used += req.size;
                    Outcome::MissAdmitted
                }
            }
        }
        fn metadata_overhead_bytes(&self) -> u64 {
            self.cached.len() as u64 * 8
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_is_hit() {
        assert!(Outcome::Hit.is_hit());
        assert!(!Outcome::MissAdmitted.is_hit());
        assert!(!Outcome::MissBypassed.is_hit());
    }
}
