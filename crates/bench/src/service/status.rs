//! The service's observable state: one `status.json`, atomically
//! rewritten after every daemon tick that changes anything.
//!
//! The file is the *only* interface `campaignctl status` needs — the
//! client never locks, never races a partial write (rename
//! atomicity), and never sees state newer than the daemon has durably
//! journalled. Rendering is deterministic (sorted ids, no wall-clock
//! values) so tests can compare snapshots byte-wise; parsing uses the
//! same minimal JSON field extraction the campaign artifacts use.

use crate::campaign::durable::write_atomic;
use crate::campaign::{artifact::json_str, json_field};

use super::journal::CampaignState;
use super::ServicePaths;

/// One worker's liveness line in the snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStatus {
    /// The worker's fabric id.
    pub id: String,
    /// OS pid of the current incarnation.
    pub pid: u32,
    /// `true` while the process is running.
    pub alive: bool,
    /// Times the supervisor has respawned this slot.
    pub respawns: u32,
}

/// The executing campaign's progress line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignStatus {
    /// Campaign id.
    pub id: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Configs resolved (shard or quarantine) so far.
    pub configs_done: usize,
    /// Grid size.
    pub configs_total: usize,
    /// Configs quarantined so far.
    pub quarantined: usize,
}

/// The full service snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatusSnapshot {
    /// Daemon pid (0 when rendered by anything else).
    pub daemon_pid: u32,
    /// `false` once admission refuses or the daemon drains.
    pub accepting: bool,
    /// Machine-readable refusal code when not accepting.
    pub reason_code: Option<String>,
    /// `true` while the daemon is in lame-duck mode.
    pub draining: bool,
    /// Queued campaign ids, sorted.
    pub queued: Vec<String>,
    /// The campaign being executed, if any.
    pub campaign: Option<CampaignStatus>,
    /// Fleet liveness, in worker order.
    pub workers: Vec<WorkerStatus>,
    /// Archived campaign ids, sorted.
    pub archived: Vec<String>,
    /// Failed/quarantined campaign ids, sorted.
    pub failed: Vec<String>,
}

impl StatusSnapshot {
    /// Renders the snapshot as deterministic JSON.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"daemon_pid\": {},\n", self.daemon_pid));
        out.push_str(&format!("  \"accepting\": {},\n", self.accepting));
        out.push_str(&format!(
            "  \"reason_code\": {},\n",
            match &self.reason_code {
                Some(code) => json_str(code),
                None => "null".into(),
            }
        ));
        out.push_str(&format!("  \"draining\": {},\n", self.draining));
        out.push_str(&format!("  \"queued\": {},\n", id_list(&self.queued)));
        match &self.campaign {
            Some(c) => out.push_str(&format!(
                "  \"campaign\": {{ \"id\": {}, \"state\": {}, \"configs_done\": {}, \
                 \"configs_total\": {}, \"quarantined\": {} }},\n",
                json_str(&c.id),
                json_str(c.state.key()),
                c.configs_done,
                c.configs_total,
                c.quarantined,
            )),
            None => out.push_str("  \"campaign\": null,\n"),
        }
        out.push_str("  \"workers\": [");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{ \"id\": {}, \"pid\": {}, \"alive\": {}, \"respawns\": {} }}",
                json_str(&w.id),
                w.pid,
                w.alive,
                w.respawns
            ));
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"archived\": {},\n", id_list(&self.archived)));
        out.push_str(&format!("  \"failed\": {}\n", id_list(&self.failed)));
        out.push_str("}\n");
        out
    }

    /// Atomically publishes the snapshot at the root's `status.json`.
    pub fn write(&self, paths: &ServicePaths) -> Result<(), String> {
        write_atomic(&paths.status, &self.render())
    }

    /// Parses the fields `campaignctl` needs back out of a rendered
    /// snapshot. Round-trips [`StatusSnapshot::render`] for scalar
    /// fields and the campaign line; worker detail is display-only
    /// and not reparsed.
    pub fn parse(text: &str) -> Option<StatusSnapshot> {
        let campaign = text
            .find("\"campaign\": {")
            .map(|at| &text[at..])
            .and_then(|obj| {
                Some(CampaignStatus {
                    id: unquote(&json_field(obj, "id")?)?,
                    state: CampaignState::parse(&unquote(&json_field(obj, "state")?)?)?,
                    configs_done: json_field(obj, "configs_done")?.parse().ok()?,
                    configs_total: json_field(obj, "configs_total")?.parse().ok()?,
                    quarantined: json_field(obj, "quarantined")?.parse().ok()?,
                })
            });
        Some(StatusSnapshot {
            daemon_pid: json_field(text, "daemon_pid")?.parse().ok()?,
            accepting: json_field(text, "accepting")? == "true",
            reason_code: json_field(text, "reason_code")
                .filter(|v| v != "null")
                .and_then(|v| unquote(&v)),
            draining: json_field(text, "draining")? == "true",
            queued: parse_id_list(text, "queued"),
            campaign,
            workers: Vec::new(),
            archived: parse_id_list(text, "archived"),
            failed: parse_id_list(text, "failed"),
        })
    }
}

fn id_list(ids: &[String]) -> String {
    let quoted: Vec<String> = ids.iter().map(|id| json_str(id)).collect();
    format!("[{}]", quoted.join(", "))
}

fn parse_id_list(text: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\": [");
    let Some(at) = text.find(&needle) else {
        return Vec::new();
    };
    let rest = &text[at + needle.len()..];
    let Some(end) = rest.find(']') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .filter_map(|tok| unquote(tok.trim()))
        .collect()
}

fn unquote(token: &str) -> Option<String> {
    token
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrips_through_render_and_parse() {
        let snap = StatusSnapshot {
            daemon_pid: 4242,
            accepting: false,
            reason_code: Some("disk_pressure".into()),
            draining: false,
            queued: vec!["b-1".into(), "c-2".into()],
            campaign: Some(CampaignStatus {
                id: "a-0".into(),
                state: CampaignState::Running,
                configs_done: 3,
                configs_total: 8,
                quarantined: 1,
            }),
            workers: vec![WorkerStatus {
                id: "w0".into(),
                pid: 7,
                alive: true,
                respawns: 2,
            }],
            archived: vec!["z-9".into()],
            failed: vec![],
        };
        let text = snap.render();
        let parsed = StatusSnapshot::parse(&text).unwrap();
        assert_eq!(parsed.daemon_pid, 4242);
        assert!(!parsed.accepting);
        assert_eq!(parsed.reason_code.as_deref(), Some("disk_pressure"));
        assert_eq!(parsed.queued, snap.queued);
        assert_eq!(parsed.campaign, snap.campaign);
        assert_eq!(parsed.archived, snap.archived);
        assert!(parsed.failed.is_empty());
        // Rendering is deterministic: same snapshot, same bytes.
        assert_eq!(text, snap.render());
    }

    #[test]
    fn idle_snapshot_parses_with_null_campaign() {
        let snap = StatusSnapshot {
            daemon_pid: 1,
            accepting: true,
            ..StatusSnapshot::default()
        };
        let parsed = StatusSnapshot::parse(&snap.render()).unwrap();
        assert!(parsed.accepting);
        assert_eq!(parsed.reason_code, None);
        assert_eq!(parsed.campaign, None);
    }

    mod properties {
        //! `campaignctl` parses a file the daemon rewrites: any text
        //! yields a snapshot or `None`, never a panic, and a rendered
        //! snapshot parses back to every field `parse` reads.

        use super::*;
        use proptest::prelude::*;

        /// `campaign_id`'s alphabet: ASCII alphanumerics, `-` and `_`.
        const ID_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";

        fn arb_id() -> impl Strategy<Value = String> {
            prop::collection::vec(0..ID_CHARS.len(), 1..24)
                .prop_map(|ix| ix.into_iter().map(|i| ID_CHARS[i] as char).collect())
        }

        fn arb_ids() -> impl Strategy<Value = Vec<String>> {
            prop::collection::vec(arb_id(), 0..4)
        }

        fn arb_campaign() -> impl Strategy<Value = Option<CampaignStatus>> {
            let campaign = (
                arb_id(),
                0..CampaignState::ALL.len(),
                (any::<usize>(), any::<usize>(), any::<usize>()),
            )
                .prop_map(|(id, state, (done, total, quarantined))| CampaignStatus {
                    id,
                    state: CampaignState::ALL[state],
                    configs_done: done,
                    configs_total: total,
                    quarantined,
                });
            prop_oneof![Just(None), campaign.prop_map(Some)]
        }

        fn arb_snapshot() -> impl Strategy<Value = StatusSnapshot> {
            let worker = (arb_id(), any::<u32>(), any::<bool>(), any::<u32>()).prop_map(
                |(id, pid, alive, respawns)| WorkerStatus {
                    id,
                    pid,
                    alive,
                    respawns,
                },
            );
            (
                (any::<u32>(), any::<bool>(), any::<bool>()),
                prop_oneof![Just(None), arb_id().prop_map(Some)],
                (arb_ids(), arb_ids(), arb_ids()),
                arb_campaign(),
                prop::collection::vec(worker, 0..3),
            )
                .prop_map(
                    |((daemon_pid, accepting, draining), reason_code, lists, campaign, workers)| {
                        let (queued, archived, failed) = lists;
                        StatusSnapshot {
                            daemon_pid,
                            accepting,
                            reason_code,
                            draining,
                            queued,
                            campaign,
                            workers,
                            archived,
                            failed,
                        }
                    },
                )
        }

        /// Arbitrary text: random bytes, lossily decoded, or runs of
        /// the snapshot's own keys and JSON punctuation.
        fn arb_text() -> impl Strategy<Value = String> {
            const PIECES: [&str; 20] = [
                "\"daemon_pid\": ",
                "\"accepting\": ",
                "\"reason_code\": ",
                "\"campaign\": {",
                "\"queued\": [",
                "\"id\": ",
                "\"state\": ",
                "\"configs_done\": ",
                "null",
                "true",
                "running",
                "\"",
                "[",
                "]",
                "{",
                "}",
                ", ",
                "\n",
                "7",
                "-",
            ];
            prop_oneof![
                prop::collection::vec(any::<u8>(), 0..256)
                    .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
                prop::collection::vec(0..PIECES.len(), 0..48)
                    .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect()),
            ]
        }

        proptest! {
            #[test]
            fn render_then_parse_round_trips(snap in arb_snapshot()) {
                let parsed = StatusSnapshot::parse(&snap.render()).expect("rendered text parses");
                // Worker detail is display-only and not reparsed.
                prop_assert_eq!(parsed, StatusSnapshot { workers: Vec::new(), ..snap });
            }

            #[test]
            fn torn_and_arbitrary_text_never_panics(snap in arb_snapshot(), text in arb_text()) {
                let _ = StatusSnapshot::parse(&text);
                let rendered = snap.render().into_bytes();
                for cut in 0..=rendered.len() {
                    let _ = StatusSnapshot::parse(&String::from_utf8_lossy(&rendered[..cut]));
                }
            }
        }
    }
}
