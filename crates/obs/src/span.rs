//! Profiling spans: scoped timers aggregated into a self-time/total-time
//! tree.
//!
//! A span is entered with [`crate::Obs::span`] and exited when the returned
//! guard drops. Spans with the same name under the same parent aggregate
//! into one tree node (count + total time), so per-window or per-round
//! spans stay O(distinct paths), not O(calls). In deterministic mode the
//! clock is never read: counts are recorded, durations are zero, and the
//! serialized tree is byte-identical across runs.
//!
//! Nesting is tracked per recorder with a stack, which assumes the
//! instrumented paths run on one thread — true for everything this
//! workspace instruments (the simulator loop, LHR's window finalization,
//! GBM's outer fit; GBM's internal worker threads are *inside* one span).

use lhr_util::json::ObjectWriter;
#[cfg(test)]
use lhr_util::json::{FromJson, Json, ToJson};

/// One aggregated node of the span tree, flattened for JSONL export.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Slash-joined path from the root, e.g. `sim.run/gbm.fit`.
    pub path: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total seconds inside the span (children included); 0 in
    /// deterministic mode.
    pub total_secs: f64,
    /// Seconds inside the span minus seconds inside its children; 0 in
    /// deterministic mode.
    pub self_secs: f64,
}

lhr_util::impl_json!(struct SpanRecord { path, count, total_secs, self_secs });

impl SpanRecord {
    /// The fields listed above, in that order, for
    /// [`crate::ObsRecord::write_line`].
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        w.string("path", &self.path);
        w.uint("count", self.count);
        w.float("total_secs", self.total_secs);
        w.float("self_secs", self.self_secs);
    }
}

#[derive(Debug)]
struct Node {
    name: String,
    children: Vec<usize>,
    count: u64,
    total_ns: u128,
}

/// The aggregation structure behind [`crate::Obs::span`].
#[derive(Debug, Default)]
pub(crate) struct SpanTree {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

impl SpanTree {
    /// Enters a span named `name` under the currently open span (or as a
    /// root), returning its node index.
    pub(crate) fn enter(&mut self, name: &str) -> usize {
        let parent = self.stack.last().copied();
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == name);
        let idx = match found {
            Some(i) => i,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    name: name.to_string(),
                    children: Vec::new(),
                    count: 0,
                    total_ns: 0,
                });
                match parent {
                    Some(p) => self.nodes[p].children.push(idx),
                    None => self.roots.push(idx),
                }
                idx
            }
        };
        self.nodes[idx].count += 1;
        self.stack.push(idx);
        idx
    }

    /// Exits span `idx`, crediting `elapsed_ns`. Guards drop in LIFO order
    /// in correct code; if they don't, unwind the stack to the exiting
    /// span so the tree stays consistent.
    pub(crate) fn exit(&mut self, idx: usize, elapsed_ns: u128) {
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
        self.nodes[idx].total_ns += elapsed_ns;
    }

    /// Depth-first flattening into [`SpanRecord`]s (deterministic order:
    /// children in first-entered order).
    pub(crate) fn records(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for &root in &self.roots {
            self.flatten(root, "", &mut out);
        }
        out
    }

    /// Merges flattened records (from another tree) into this one by path:
    /// counts and totals add onto the node at each record's path, creating
    /// intermediate nodes as needed. Used to fold per-shard span trees into
    /// the master recorder in fixed shard order.
    pub(crate) fn absorb_records(&mut self, records: &[SpanRecord]) {
        for rec in records {
            let mut parent: Option<usize> = None;
            for name in rec.path.split('/') {
                let siblings = match parent {
                    Some(p) => &self.nodes[p].children,
                    None => &self.roots,
                };
                let found = siblings
                    .iter()
                    .copied()
                    .find(|&i| self.nodes[i].name == name);
                let idx = match found {
                    Some(i) => i,
                    None => {
                        let idx = self.nodes.len();
                        self.nodes.push(Node {
                            name: name.to_string(),
                            children: Vec::new(),
                            count: 0,
                            total_ns: 0,
                        });
                        match parent {
                            Some(p) => self.nodes[p].children.push(idx),
                            None => self.roots.push(idx),
                        }
                        idx
                    }
                };
                parent = Some(idx);
            }
            if let Some(leaf) = parent {
                self.nodes[leaf].count += rec.count;
                self.nodes[leaf].total_ns += (rec.total_secs * 1e9).round().max(0.0) as u128;
            }
        }
    }

    fn flatten(&self, idx: usize, prefix: &str, out: &mut Vec<SpanRecord>) {
        let node = &self.nodes[idx];
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix}/{}", node.name)
        };
        let child_ns: u128 = node.children.iter().map(|&c| self.nodes[c].total_ns).sum();
        out.push(SpanRecord {
            path: path.clone(),
            count: node.count,
            total_secs: node.total_ns as f64 / 1e9,
            self_secs: node.total_ns.saturating_sub(child_ns) as f64 / 1e9,
        });
        for &child in &node.children {
            self.flatten(child, &path, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_aggregation() {
        let mut t = SpanTree::default();
        let run = t.enter("run");
        for _ in 0..3 {
            let fit = t.enter("fit");
            t.exit(fit, 10);
        }
        t.exit(run, 100);
        // Same name at a different level is a different node.
        let fit_root = t.enter("fit");
        t.exit(fit_root, 7);

        let records = t.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].path, "run");
        assert_eq!(records[0].count, 1);
        assert!((records[0].total_secs - 100e-9).abs() < 1e-18);
        assert!((records[0].self_secs - 70e-9).abs() < 1e-18);
        assert_eq!(records[1].path, "run/fit");
        assert_eq!(records[1].count, 3);
        assert_eq!(records[2].path, "fit");
        assert_eq!(records[2].count, 1);
    }

    #[test]
    fn out_of_order_exit_recovers() {
        let mut t = SpanTree::default();
        let a = t.enter("a");
        let _b = t.enter("b");
        // `a` exits while `b` is still open: stack unwinds through b.
        t.exit(a, 5);
        let c = t.enter("c");
        t.exit(c, 1);
        let records = t.records();
        assert_eq!(records.iter().find(|r| r.path == "c").unwrap().count, 1);
    }

    #[test]
    fn absorb_records_merges_by_path() {
        let mut a = SpanTree::default();
        let run = a.enter("run");
        let fit = a.enter("fit");
        a.exit(fit, 1_000_000_000);
        a.exit(run, 3_000_000_000);

        let mut b = SpanTree::default();
        let run_b = b.enter("run");
        let fit_b = b.enter("fit");
        b.exit(fit_b, 2_000_000_000);
        b.exit(run_b, 4_000_000_000);
        let predict = b.enter("predict");
        b.exit(predict, 500_000_000);

        a.absorb_records(&b.records());
        let records = a.records();
        let get = |path: &str| records.iter().find(|r| r.path == path).unwrap().clone();
        assert_eq!(get("run").count, 2);
        assert!((get("run").total_secs - 7.0).abs() < 1e-9);
        assert_eq!(get("run/fit").count, 2);
        assert!((get("run/fit").total_secs - 3.0).abs() < 1e-9);
        assert!((get("run").self_secs - 4.0).abs() < 1e-9);
        assert_eq!(get("predict").count, 1, "new roots are created");
    }

    #[test]
    fn span_record_json_roundtrip() {
        let r = SpanRecord {
            path: "sim.run/gbm.fit".to_string(),
            count: 12,
            total_secs: 1.5,
            self_secs: 0.75,
        };
        let text = r.to_json().to_string();
        let back = SpanRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json().to_string(), text);
    }
}
