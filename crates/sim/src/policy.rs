//! The cache policy interface.

use crate::store::CacheStore;
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
/// A policy is a rule on a [`CacheStore`]: it names the store it keeps its
/// objects in ([`CachePolicy::store`] / [`CachePolicy::store_mut`]) and
/// implements `handle`; its byte accounting, eviction count and freshness
/// stamps are the store's.
///
/// # Contract
///
/// - `handle` must keep `used_bytes() ≤ capacity()` at all times (the
///   simulator asserts this in debug builds after every request).
/// - An object larger than the capacity must never be admitted.
/// - `contains(id)` must agree with what `handle` would report as a hit.
/// - `handle` keeps the freshness stamps of [`CacheStore`]'s contract: an
///   answer of [`Outcome::MissAdmitted`] admits `req.id` stamped `req.ts`.
/// - Policies must be deterministic given their construction parameters
///   (randomized policies take an explicit seed).
///
/// # Example
///
/// A minimal admit-all policy over a
/// [`SampleStore`](crate::store::SampleStore) that evicts nothing and
/// bypasses what does not fit (real policies evict inside `handle` to make
/// room):
///
/// ```
/// use lhr_sim::store::{CacheStore, SampleStore};
/// use lhr_sim::{CachePolicy, Outcome};
/// use lhr_trace::{Request, Time};
///
/// struct Unbounded {
///     store: SampleStore<()>,
/// }
///
/// impl CachePolicy for Unbounded {
///     fn name(&self) -> &str { "Unbounded" }
///     fn store(&self) -> &dyn CacheStore { &self.store }
///     fn store_mut(&mut self) -> &mut dyn CacheStore { &mut self.store }
///     fn handle(&mut self, req: &Request) -> Outcome {
///         if self.store.contains(req.id) {
///             return Outcome::Hit;
///         }
///         if !self.store.fits(req.size) {
///             return Outcome::MissBypassed; // never overflow the contract
///         }
///         self.store.push(req.id, req.size, req.ts, ());
///         Outcome::MissAdmitted
///     }
/// }
///
/// let mut policy = Unbounded { store: SampleStore::new(1_000) };
/// let req = Request::new(Time::from_secs(3), 7, 100);
/// assert_eq!(policy.handle(&req), Outcome::MissAdmitted);
/// assert_eq!(policy.handle(&req), Outcome::Hit);
/// assert!(policy.contains(7));
/// assert_eq!(policy.used_bytes(), 100);
/// assert_eq!(policy.admitted_at(7), Some(Time::from_secs(3)));
/// policy.restamp(7, Time::from_secs(9));
/// assert_eq!(policy.admitted_at(7), Some(Time::from_secs(9)));
/// policy.restamp(8, Time::from_secs(9)); // absent: nothing happens
/// assert!(!policy.contains(8));
/// ```
pub trait CachePolicy {
    /// Human-readable policy name, e.g. `"LRU"` or `"LHR"`.
    fn name(&self) -> &str;

    /// The store the policy keeps its objects in.
    fn store(&self) -> &dyn CacheStore;

    /// The store, writable (for [`CachePolicy::restamp`]).
    fn store_mut(&mut self) -> &mut dyn CacheStore;

    /// Processes one request and reports what happened.
    fn handle(&mut self, req: &Request) -> Outcome;

    /// Total cache capacity in bytes.
    fn capacity(&self) -> u64 {
        self.store().capacity()
    }

    /// Bytes currently occupied by cached objects.
    fn used_bytes(&self) -> u64 {
        self.store().used()
    }

    /// Number of evictions performed so far.
    fn evictions(&self) -> u64 {
        self.store().evictions()
    }

    /// The freshness stamp of `id` ([`CacheStore::admitted_at`]); `None`
    /// when `id` is not cached.
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.store().admitted_at(id)
    }

    /// Restarts the freshness lifetime of `id` ([`CacheStore::restamp`]).
    fn restamp(&mut self, id: ObjectId, at: Time) {
        self.store_mut().restamp(id, at)
    }

    /// Whether `id` is currently cached.
    fn contains(&self, id: ObjectId) -> bool {
        self.admitted_at(id).is_some()
    }

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

    /// Approximate bytes of metadata the policy maintains beyond the cached
    /// payloads (Figure 9's "peak memory" accounting). Defaults to zero for
    /// policies whose metadata is negligible.
    fn metadata_overhead_bytes(&self) -> u64 {
        0
    }
}

/// Blanket impl so `Box<dyn CachePolicy>` is itself a policy; lets drivers
/// hold heterogeneous policies uniformly. It forwards every method, not
/// only the required ones: the boxed policy's own `admitted_at` (its
/// provided body, compiled for its type) reads its store directly, so a
/// hit through the box pays one virtual call, not one for the method and
/// another for the store.
impl<P: CachePolicy + ?Sized> CachePolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn store(&self) -> &dyn CacheStore {
        (**self).store()
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        (**self).store_mut()
    }
    fn handle(&mut self, req: &Request) -> Outcome {
        (**self).handle(req)
    }
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }
    fn used_bytes(&self) -> u64 {
        (**self).used_bytes()
    }
    fn evictions(&self) -> u64 {
        (**self).evictions()
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
    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        (**self).hit_check(req)
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
    use crate::store::SampleStore;

    pub(crate) struct Infinite {
        store: SampleStore<()>,
    }

    impl Default for Infinite {
        fn default() -> Self {
            Infinite {
                store: SampleStore::new(u64::MAX),
            }
        }
    }

    impl CachePolicy for Infinite {
        fn name(&self) -> &str {
            "infinite"
        }
        fn store(&self) -> &dyn CacheStore {
            &self.store
        }
        fn store_mut(&mut self) -> &mut dyn CacheStore {
            &mut self.store
        }
        fn handle(&mut self, req: &Request) -> Outcome {
            if self.store.contains(req.id) {
                return Outcome::Hit;
            }
            self.store.push(req.id, req.size, req.ts, ());
            Outcome::MissAdmitted
        }
        fn metadata_overhead_bytes(&self) -> u64 {
            self.store.len() as u64 * 8
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
