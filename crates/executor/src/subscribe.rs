//! Live materialized-view subscriptions.
//!
//! Sessions register interest in a materialized view and receive, per
//! maintenance round, the **consolidated delta** of the view's visible
//! projection (group keys plus finalized aggregate columns — stored
//! partial-state components are an implementation detail and never
//! leave the engine): a [`ViewEvent::Created`] for each new group, an
//! [`ViewEvent::Updated`] for each group whose visible values changed,
//! and a [`ViewEvent::Deleted`] for each group that disappeared. Rounds
//! that leave the projection untouched publish nothing.
//!
//! Queues are **bounded**. When a publish would overflow a subscriber's
//! queue, the queue degrades: everything buffered is dropped and
//! replaced by a single [`ViewEvent::Resync`] marker telling the
//! subscriber to re-read the extents of every view it follows before
//! trusting further deltas. Events published after the marker are
//! deliverable again (resync first, then replay), so a slow consumer
//! loses granularity, never correctness.

use aggview_common::Tuple;
use aggview_storage::ExtentLayout;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Default per-subscriber queue bound (events, not rounds).
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// One change to a materialized view's visible projection, or the
/// overflow marker.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewEvent {
    /// A group appeared.
    Created { view: String, row: Tuple },
    /// A group's visible values changed.
    Updated {
        view: String,
        old: Tuple,
        new: Tuple,
    },
    /// A group disappeared.
    Deleted { view: String, row: Tuple },
    /// The subscriber's queue overflowed: buffered events were dropped;
    /// re-read the extent of every subscribed view before applying any
    /// later events.
    Resync { view: String },
}

impl ViewEvent {
    /// The view this event concerns.
    pub fn view(&self) -> &str {
        match self {
            ViewEvent::Created { view, .. }
            | ViewEvent::Updated { view, .. }
            | ViewEvent::Deleted { view, .. }
            | ViewEvent::Resync { view } => view,
        }
    }
}

impl fmt::Display for ViewEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewEvent::Created { view, row } => write!(f, "created {view}: {row}"),
            ViewEvent::Updated { view, old, new } => {
                write!(f, "updated {view}: {old} -> {new}")
            }
            ViewEvent::Deleted { view, row } => write!(f, "deleted {view}: {row}"),
            ViewEvent::Resync { view } => {
                write!(f, "resync {view}: events were dropped, re-read the extent")
            }
        }
    }
}

/// The visible projection of an extent row: group keys then finalized
/// aggregate values, skipping stored partial-state component columns.
pub fn visible_projection(layout: &ExtentLayout, row: &Tuple) -> Tuple {
    let mut pos: Vec<usize> = (0..layout.key_cols).collect();
    pos.extend(layout.aggs.iter().map(|a| a.finalized));
    row.project(&pos)
}

/// The extent rows one incremental maintenance round replaced, removed
/// and added (what [`crate::delta::apply_zset_delta`] reports): the
/// round's events follow from these alone, without reading the extent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtentChange {
    /// `(old, new)` extent rows of groups that were already stored.
    pub updated: Vec<(Tuple, Tuple)>,
    /// Extent rows of groups that disappeared.
    pub deleted: Vec<Tuple>,
    /// Extent rows of groups that appeared.
    pub created: Vec<Tuple>,
}

/// The consolidated events of one incremental round: Updated (groups
/// whose visible values changed, in extent order), then Created, then
/// Deleted.
pub fn change_round(view: &str, layout: &ExtentLayout, change: &ExtentChange) -> Vec<ViewEvent> {
    let visible = |row| visible_projection(layout, row);
    let view = || view.to_string();
    let updated = change.updated.iter().filter_map(|(old, new)| {
        let (old, new) = (visible(old), visible(new));
        (old != new).then(|| ViewEvent::Updated {
            view: view(),
            old,
            new,
        })
    });
    let created = change.created.iter().map(|row| ViewEvent::Created {
        view: view(),
        row: visible(row),
    });
    let deleted = change.deleted.iter().map(|row| ViewEvent::Deleted {
        view: view(),
        row: visible(row),
    });
    updated.chain(created).chain(deleted).collect()
}

/// Diff two extent snapshots into the consolidated events of one
/// maintenance round, keyed on the group key (the leading
/// `layout.key_cols` columns). Created/Updated events follow the
/// after-snapshot's row order; Deleted events follow key order.
pub fn diff_round(
    view: &str,
    layout: &ExtentLayout,
    before: &[Tuple],
    after: &[Tuple],
) -> Vec<ViewEvent> {
    let key_pos: Vec<usize> = (0..layout.key_cols).collect();
    let mut old: BTreeMap<Tuple, Tuple> = before
        .iter()
        .map(|r| (r.project(&key_pos), visible_projection(layout, r)))
        .collect();
    let mut events = Vec::new();
    for r in after {
        let key = r.project(&key_pos);
        let now = visible_projection(layout, r);
        match old.remove(&key) {
            Some(prev) if prev == now => {}
            Some(prev) => events.push(ViewEvent::Updated {
                view: view.to_string(),
                old: prev,
                new: now,
            }),
            None => events.push(ViewEvent::Created {
                view: view.to_string(),
                row: now,
            }),
        }
    }
    for (_, prev) in old {
        events.push(ViewEvent::Deleted {
            view: view.to_string(),
            row: prev,
        });
    }
    events
}

#[derive(Debug, Default)]
struct Subscriber {
    /// Lowercased view names this subscriber follows.
    views: BTreeSet<String>,
    queue: VecDeque<ViewEvent>,
}

/// Fan-out hub: subscribers (by name) follow materialized views and
/// drain their queued [`ViewEvent`]s at their own pace.
#[derive(Debug)]
pub struct SubscriptionHub {
    capacity: usize,
    subs: Mutex<BTreeMap<String, Subscriber>>,
}

impl Default for SubscriptionHub {
    fn default() -> SubscriptionHub {
        SubscriptionHub::new()
    }
}

impl SubscriptionHub {
    /// A hub with the default queue bound.
    pub fn new() -> SubscriptionHub {
        SubscriptionHub::with_capacity(DEFAULT_QUEUE_CAPACITY)
    }

    /// A hub bounding each subscriber's queue at `capacity` events
    /// (minimum 1 — the Resync marker must always fit).
    pub fn with_capacity(capacity: usize) -> SubscriptionHub {
        SubscriptionHub {
            capacity: capacity.max(1),
            subs: Mutex::new(BTreeMap::new()),
        }
    }

    /// Subscribe `who` to `view` (idempotent).
    pub fn subscribe(&self, who: &str, view: &str) {
        let mut subs = self.subs.lock();
        subs.entry(who.to_string())
            .or_default()
            .views
            .insert(view.to_ascii_lowercase());
    }

    /// Unsubscribe `who` from `view`; true when a subscription existed.
    /// Already-queued events for the view remain drainable.
    pub fn unsubscribe(&self, who: &str, view: &str) -> bool {
        let mut subs = self.subs.lock();
        subs.get_mut(who)
            .is_some_and(|s| s.views.remove(&view.to_ascii_lowercase()))
    }

    /// The views `who` currently follows, sorted.
    pub fn subscriptions(&self, who: &str) -> Vec<String> {
        let subs = self.subs.lock();
        subs.get(who)
            .map(|s| s.views.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// True when at least one subscriber follows `view` — publishers use
    /// this to skip snapshotting extents nobody is watching.
    pub fn has_subscribers(&self, view: &str) -> bool {
        let key = view.to_ascii_lowercase();
        let subs = self.subs.lock();
        subs.values().any(|s| s.views.contains(&key))
    }

    /// Remove every queued event for `who` and return them in arrival
    /// order.
    pub fn drain(&self, who: &str) -> Vec<ViewEvent> {
        let mut subs = self.subs.lock();
        subs.get_mut(who)
            .map(|s| s.queue.drain(..).collect())
            .unwrap_or_default()
    }

    /// Queued-event count for `who`.
    pub fn pending(&self, who: &str) -> usize {
        let subs = self.subs.lock();
        subs.get(who).map_or(0, |s| s.queue.len())
    }

    /// Deliver one round's consolidated events for `view` to every
    /// subscriber following it, applying the bounded-queue overflow
    /// contract per subscriber.
    pub fn publish(&self, view: &str, events: &[ViewEvent]) {
        if events.is_empty() {
            return;
        }
        let key = view.to_ascii_lowercase();
        let mut subs = self.subs.lock();
        for s in subs.values_mut().filter(|s| s.views.contains(&key)) {
            if s.queue.len() + events.len() > self.capacity {
                // Overflow: collapse everything buffered into a single
                // resync marker, then deliver this round's events if
                // they fit on their own.
                s.queue.clear();
                s.queue.push_back(ViewEvent::Resync {
                    view: view.to_string(),
                });
                if events.len() < self.capacity {
                    s.queue.extend(events.iter().cloned());
                }
            } else {
                s.queue.extend(events.iter().cloned());
            }
        }
    }

    /// A buffer for the rounds of one statement, to be published once
    /// the statement has committed.
    pub fn pending_rounds(&self) -> PendingRounds<'_> {
        PendingRounds {
            hub: self,
            rounds: Vec::new(),
        }
    }
}

/// The maintenance rounds of one statement that has not committed yet:
/// what each watched view's subscribers will be told, held back until
/// the statement's commit returns. [`publish`](PendingRounds::publish)
/// delivers them; dropping the buffer — the statement failed and was
/// rolled back — delivers nothing, so subscribers never see a round
/// that did not happen.
#[derive(Debug)]
pub struct PendingRounds<'h> {
    hub: &'h SubscriptionHub,
    rounds: Vec<(String, Vec<ViewEvent>)>,
}

impl PendingRounds<'_> {
    /// True when somebody follows `view` — rounds of unwatched views
    /// are not worth computing.
    pub fn watches(&self, view: &str) -> bool {
        self.hub.has_subscribers(view)
    }

    /// Note an incremental round from the rows it changed (see
    /// [`change_round`]).
    pub fn change(&mut self, view: &str, layout: &ExtentLayout, change: &ExtentChange) {
        self.rounds
            .push((view.to_string(), change_round(view, layout, change)));
    }

    /// Note a round that rebuilt the extent (REFRESH, the maintenance
    /// fallback), where no [`ExtentChange`] exists, as the diff of the
    /// extent's rows before and after (see [`diff_round`]).
    pub fn diff(&mut self, view: &str, layout: &ExtentLayout, before: &[Tuple], after: &[Tuple]) {
        self.rounds
            .push((view.to_string(), diff_round(view, layout, before, after)));
    }

    /// The statement committed: deliver its rounds, in the order they
    /// happened.
    pub fn publish(self) {
        for (view, events) in &self.rounds {
            self.hub.publish(view, events);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::tuple;
    use aggview_storage::matview::AggColumns;

    /// Layout of `(dno, total, __total_p0, n, __n_p0)`: one key column,
    /// SUM with one component, COUNT with one component.
    fn layout() -> ExtentLayout {
        ExtentLayout {
            key_cols: 1,
            aggs: vec![
                AggColumns {
                    finalized: 1,
                    components: vec![2],
                },
                AggColumns {
                    finalized: 3,
                    components: vec![4],
                },
            ],
            width: 5,
        }
    }

    #[test]
    fn diff_emits_consolidated_created_updated_deleted() {
        let l = layout();
        let before = vec![
            tuple![0i64, 10.0f64, 10.0f64, 2i64, 2i64],
            tuple![1i64, 7.0f64, 7.0f64, 1i64, 1i64],
        ];
        let after = vec![
            tuple![0i64, 15.0f64, 15.0f64, 3i64, 3i64], // updated
            tuple![2i64, 4.0f64, 4.0f64, 1i64, 1i64],   // created
        ]; // dno=1 deleted
        let ev = diff_round("v", &l, &before, &after);
        assert_eq!(ev.len(), 3);
        assert_eq!(
            ev[0],
            ViewEvent::Updated {
                view: "v".into(),
                old: tuple![0i64, 10.0f64, 2i64],
                new: tuple![0i64, 15.0f64, 3i64],
            }
        );
        assert_eq!(
            ev[1],
            ViewEvent::Created {
                view: "v".into(),
                row: tuple![2i64, 4.0f64, 1i64],
            }
        );
        assert_eq!(
            ev[2],
            ViewEvent::Deleted {
                view: "v".into(),
                row: tuple![1i64, 7.0f64, 1i64],
            }
        );
    }

    #[test]
    fn change_round_agrees_with_the_snapshot_diff() {
        let l = layout();
        let before = vec![
            tuple![0i64, 10.0f64, 10.0f64, 2i64, 2i64],
            tuple![1i64, 7.0f64, 7.0f64, 1i64, 1i64],
            tuple![3i64, 1.0f64, 1.0f64, 1i64, 1i64],
        ];
        let change = ExtentChange {
            updated: vec![
                (
                    before[0].clone(),
                    tuple![0i64, 15.0f64, 15.0f64, 3i64, 3i64],
                ),
                // Components moved, the visible projection did not.
                (before[2].clone(), tuple![3i64, 1.0f64, 9.0f64, 1i64, 9i64]),
            ],
            deleted: vec![before[1].clone()],
            created: vec![tuple![2i64, 4.0f64, 4.0f64, 1i64, 1i64]],
        };
        let after = vec![
            change.updated[0].1.clone(),
            change.updated[1].1.clone(),
            change.created[0].clone(),
        ];
        let ev = change_round("v", &l, &change);
        assert_eq!(ev, diff_round("v", &l, &before, &after));
        assert_eq!(ev.len(), 3, "{ev:?}");
    }

    #[test]
    fn unchanged_rounds_publish_nothing() {
        let l = layout();
        let rows = vec![tuple![0i64, 10.0f64, 10.0f64, 2i64, 2i64]];
        assert!(diff_round("v", &l, &rows, &rows).is_empty());
        // Component-only drift (never happens in practice, but the
        // visible projection must mask it) is also silent.
        let after = vec![tuple![0i64, 10.0f64, 99.0f64, 2i64, 7i64]];
        assert!(diff_round("v", &l, &rows, &after).is_empty());
    }

    #[test]
    fn subscribe_drain_unsubscribe_lifecycle() {
        let hub = SubscriptionHub::new();
        hub.subscribe("repl", "dsal");
        assert!(hub.has_subscribers("DSAL"), "names are case-insensitive");
        assert_eq!(hub.subscriptions("repl"), vec!["dsal".to_string()]);

        let ev = ViewEvent::Created {
            view: "dsal".into(),
            row: tuple![1i64],
        };
        hub.publish("dsal", std::slice::from_ref(&ev));
        hub.publish(
            "other",
            &[ViewEvent::Resync {
                view: "other".into(),
            }],
        );
        assert_eq!(hub.drain("repl"), vec![ev]);
        assert!(hub.drain("repl").is_empty(), "drain empties the queue");

        assert!(hub.unsubscribe("repl", "dsal"));
        assert!(!hub.unsubscribe("repl", "dsal"));
        assert!(!hub.has_subscribers("dsal"));
        hub.publish(
            "dsal",
            &[ViewEvent::Resync {
                view: "dsal".into(),
            }],
        );
        assert_eq!(hub.pending("repl"), 0);
    }

    #[test]
    fn overflow_degrades_to_resync_marker() {
        let hub = SubscriptionHub::with_capacity(3);
        hub.subscribe("slow", "v");
        let ev = |i: i64| ViewEvent::Created {
            view: "v".into(),
            row: tuple![i],
        };
        hub.publish("v", &[ev(1), ev(2), ev(3)]);
        assert_eq!(hub.pending("slow"), 3);
        // The 4th event overflows: everything collapses to resync + the
        // new round (which fits on its own).
        hub.publish("v", &[ev(4)]);
        let drained = hub.drain("slow");
        assert_eq!(drained, vec![ViewEvent::Resync { view: "v".into() }, ev(4)]);
        // A round too large even for an empty queue leaves only the marker.
        hub.publish("v", &[ev(1), ev(2), ev(3), ev(4)]);
        assert_eq!(
            hub.drain("slow"),
            vec![ViewEvent::Resync { view: "v".into() }]
        );
    }
}
