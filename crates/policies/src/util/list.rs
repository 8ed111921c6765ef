//! An arena-backed doubly-linked list with stable handles — the recency
//! backbone of [`super::SegmentedStore`], one list per segment (one for
//! the single-list policies such as LRU; several for SLRU, ARC, W-TinyLFU
//! and Hawkeye). No policy uses it directly.
//!
//! Front = most recently used, back = least recently used. All operations
//! are O(1).

/// Stable handle to a list node. Invalidated by the `remove`/`pop_back`
/// that deletes its node; reusing a stale handle is a logic error the list
/// cannot always detect (the slot may have been recycled), so policies must
/// drop handles when they evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(u32);

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    prev: u32,
    next: u32,
    value: Option<T>,
}

/// The list. `T` is typically `(ObjectId, size)`.
#[derive(Debug, Clone)]
pub struct LruList<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl<T> Default for LruList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LruList<T> {
    /// An empty list.
    pub fn new() -> Self {
        LruList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, value: T) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node {
                prev: NIL,
                next: NIL,
                value: Some(value),
            };
            idx
        } else {
            self.nodes.push(Node {
                prev: NIL,
                next: NIL,
                value: Some(value),
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Inserts at the front (MRU position), returning a handle.
    pub fn push_front(&mut self, value: T) -> Handle {
        let idx = self.alloc(value);
        self.link_front(idx);
        self.len += 1;
        Handle(idx)
    }

    fn link_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Moves an existing node to the front.
    pub fn move_to_front(&mut self, handle: Handle) {
        if self.head == handle.0 {
            return;
        }
        self.unlink(handle.0);
        self.link_front(handle.0);
    }

    /// Removes a node, returning its value.
    pub fn remove(&mut self, handle: Handle) -> T {
        self.unlink(handle.0);
        self.free.push(handle.0);
        self.len -= 1;
        self.nodes[handle.0 as usize]
            .value
            .take()
            .expect("handle was stale")
    }

    /// Removes and returns the back (LRU) element.
    pub fn pop_back(&mut self) -> Option<T> {
        if self.tail == NIL {
            return None;
        }
        Some(self.remove(Handle(self.tail)))
    }

    /// The back (LRU) element, if any.
    pub fn back(&self) -> Option<&T> {
        if self.tail == NIL {
            None
        } else {
            self.nodes[self.tail as usize].value.as_ref()
        }
    }

    /// The front (MRU) element, if any.
    pub fn front(&self) -> Option<&T> {
        if self.head == NIL {
            None
        } else {
            self.nodes[self.head as usize].value.as_ref()
        }
    }

    /// The value behind a live handle.
    pub fn get(&self, handle: Handle) -> &T {
        self.nodes[handle.0 as usize]
            .value
            .as_ref()
            .expect("handle was stale")
    }

    /// Mutable access to the value behind a live handle.
    pub fn get_mut(&mut self, handle: Handle) -> &mut T {
        self.nodes[handle.0 as usize]
            .value
            .as_mut()
            .expect("handle was stale")
    }

    /// Iterates from front (MRU) to back (LRU).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let node = &self.nodes[cur as usize];
            cur = node.next;
            node.value.as_ref()
        })
    }

    /// Iterates from back (LRU) to front (MRU) — eviction-candidate order.
    pub fn iter_lru_first(&self) -> impl Iterator<Item = &T> {
        let mut cur = self.tail;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let node = &self.nodes[cur as usize];
            cur = node.prev;
            node.value.as_ref()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_pop_order() {
        let mut l = LruList::new();
        l.push_front(1);
        l.push_front(2);
        l.push_front(3);
        assert_eq!(l.len(), 3);
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), Some(3));
        assert_eq!(l.pop_back(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn move_to_front_changes_eviction_order() {
        let mut l = LruList::new();
        let h1 = l.push_front(1);
        let _h2 = l.push_front(2);
        l.move_to_front(h1);
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), Some(1));
    }

    #[test]
    fn remove_middle() {
        let mut l = LruList::new();
        let _h1 = l.push_front(1);
        let h2 = l.push_front(2);
        let _h3 = l.push_front(3);
        assert_eq!(l.remove(h2), 2);
        assert_eq!(l.len(), 2);
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), Some(3));
    }

    #[test]
    fn slots_are_recycled() {
        let mut l = LruList::new();
        for round in 0..10 {
            let h = l.push_front(round);
            assert_eq!(l.remove(h), round);
        }
        // One node allocated, nine reuses.
        assert_eq!(l.nodes.len(), 1);
    }

    #[test]
    fn front_back_get() {
        let mut l = LruList::new();
        let h = l.push_front("a");
        l.push_front("b");
        assert_eq!(l.front(), Some(&"b"));
        assert_eq!(l.back(), Some(&"a"));
        assert_eq!(l.get(h), &"a");
        *l.get_mut(h) = "c";
        assert_eq!(l.back(), Some(&"c"));
    }

    #[test]
    fn iter_is_mru_to_lru() {
        let mut l = LruList::new();
        l.push_front(1);
        l.push_front(2);
        l.push_front(3);
        let v: Vec<i32> = l.iter().copied().collect();
        assert_eq!(v, vec![3, 2, 1]);
    }

    #[test]
    fn move_front_of_single_element_is_noop() {
        let mut l = LruList::new();
        let h = l.push_front(7);
        l.move_to_front(h);
        assert_eq!(l.len(), 1);
        assert_eq!(l.pop_back(), Some(7));
    }
}
