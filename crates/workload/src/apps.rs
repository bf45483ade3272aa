//! The six paper applications (Table 1), modeled from the behavioural
//! descriptions in §6 and calibrated toward Table 1's statistics.
//!
//! | App | Executions | Character |
//! |---|---|---|
//! | mozilla | 49 | link-following with skim/read alternation, media pages (subpath aliasing), plugin + profile helper processes |
//! | writer | 33 | composing with autosave, dictionaries and graphic filters, OO helper processes |
//! | impress | 19 | slide editing with heavy image/preview I/O, OO helper processes |
//! | xemacs | 37 | editing larger files, autosave, occasional compile subprocess |
//! | nedit | 29 | single process, one quick fix per execution: open → think → save → exit |
//! | mplayer | 31 | streaming refills below breakeven, rare pauses, terminal buffer drain |
//!
//! Calibration targets and measured values are tracked in the
//! repository's `EXPERIMENTS.md`.

use crate::dists::{CountDist, TimeDist};
use crate::spec::{Activity, AppSpec, HelperSpec, IoOp, UserState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The six applications of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperApp {
    /// The web browser.
    Mozilla,
    /// OpenOffice word processor.
    Writer,
    /// OpenOffice presentation editor.
    Impress,
    /// The heavyweight editor.
    Xemacs,
    /// The lightweight editor (single process).
    Nedit,
    /// The media player.
    Mplayer,
}

impl PaperApp {
    /// All six, in the paper's table order.
    pub const ALL: [PaperApp; 6] = [
        PaperApp::Mozilla,
        PaperApp::Writer,
        PaperApp::Impress,
        PaperApp::Xemacs,
        PaperApp::Nedit,
        PaperApp::Mplayer,
    ];

    /// The application's name as the paper spells it.
    pub fn name(self) -> &'static str {
        match self {
            PaperApp::Mozilla => "mozilla",
            PaperApp::Writer => "writer",
            PaperApp::Impress => "impress",
            PaperApp::Xemacs => "xemacs",
            PaperApp::Nedit => "nedit",
            PaperApp::Mplayer => "mplayer",
        }
    }

    /// The calibrated workload specification.
    pub fn spec(self) -> AppSpec {
        match self {
            PaperApp::Mozilla => mozilla(),
            PaperApp::Writer => writer(),
            PaperApp::Impress => impress(),
            PaperApp::Xemacs => xemacs(),
            PaperApp::Nedit => nedit(),
            PaperApp::Mplayer => mplayer(),
        }
    }
}

impl fmt::Display for PaperApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The full six-application suite, ready to generate.
pub fn paper_suite() -> Vec<AppSpec> {
    PaperApp::ALL.iter().map(|a| a.spec()).collect()
}

fn mozilla() -> AppSpec {
    // Page visits follow links; some pages carry media that needs extra
    // plugin/codec I/O — the same leading PC path as a plain page plus a
    // suffix, producing the subpath aliasing of §4.1 (both activities
    // share the name "open_page", so their common steps share PCs).
    // Page sizes cluster into a few chunk counts (the variability real
    // pages have), while library loads are count-stable — PCAP's
    // signatures depend on the number of I/Os on a path, so count
    // stability is what the real traces exhibit for fixed files.
    // Skimmed pages are lighter than pages the user settles into
    // reading (long articles carry more content) — identical PCs,
    // different I/O counts, so the path signatures carry the state.
    let open_page_skim = Activity::named("open_page")
        .io(IoOp::open("open_url", "page"))
        .io(IoOp::read("load_html", "page", 2).times(13, 14))
        .io(IoOp::read("load_css", "page_assets", 1).times(5, 5))
        .pause(TimeDist::Uniform(0.05, 0.2))
        .io(IoOp::read("load_img", "page_assets", 2).times(17, 18))
        .io(IoOp::write("cache_write", "browser_cache", 1).times(2, 3))
        .fresh();
    let open_page_read = Activity::named("open_page")
        .io(IoOp::open("open_url", "page"))
        .io(IoOp::read("load_html", "page", 2).times(16, 17))
        .io(IoOp::read("load_css", "page_assets", 1).times(5, 5))
        .pause(TimeDist::Uniform(0.05, 0.2))
        .io(IoOp::read("load_img", "page_assets", 2).times(22, 23))
        .io(IoOp::write("cache_write", "browser_cache", 1).times(2, 3))
        .fresh();
    let open_page_media = Activity::named("open_page")
        .io(IoOp::open("open_url", "page"))
        .io(IoOp::read("load_html", "page", 2).times(13, 14))
        .io(IoOp::read("load_css", "page_assets", 1).times(5, 5))
        .pause(TimeDist::Uniform(0.05, 0.2))
        .io(IoOp::read("load_img", "page_assets", 2).times(17, 19))
        .io(IoOp::write("cache_write", "browser_cache", 1).times(2, 3))
        .io(IoOp::read("load_plugin", "plugin_libs", 2).times(7, 7))
        .io(IoOp::read("decode_media", "page_assets", 4).times(9, 10))
        .fresh();
    let bookmark = Activity::named("bookmark")
        .io(IoOp::write_sync("save_bookmarks", "bookmarks", 1))
        .io(IoOp::write("save_history", "history", 1).times(1, 2));

    AppSpec {
        name: "mozilla".into(),
        executions: 49,
        startup: Activity::named("startup")
            .io(IoOp::open("open_profile", "profile_db"))
            .io(IoOp::read("load_libs", "mozilla_libs", 2).times(600, 600))
            .io(IoOp::read("read_prefs", "prefs", 1).times(4, 4))
            .io(IoOp::read("read_cache_index", "browser_cache", 1).times(7, 7)),
        shutdown: Some(
            Activity::named("shutdown")
                .io(IoOp::write("flush_cache", "browser_cache", 1).times(3, 6))
                .io(IoOp::write("save_session", "profile_db", 1).times(2, 4)),
        ),
        activities: vec![open_page_skim, open_page_media, bookmark, open_page_read],
        states: vec![
            UserState {
                name: "skim".into(),
                activity_weights: vec![(0, 0.80), (1, 0.10), (2, 0.05), (3, 0.05)],
                think: TimeDist::think(0.05, (0.7, 3.5), (6.5, 240.0)),
                next: vec![(0, 0.70), (1, 0.30)],
            },
            UserState {
                name: "read".into(),
                activity_weights: vec![(0, 0.10), (1, 0.40), (2, 0.05), (3, 0.45)],
                think: TimeDist::think(0.72, (2.0, 5.0), (6.5, 500.0)),
                next: vec![(0, 0.45), (1, 0.55)],
            },
        ],
        initial_state: 0,
        activities_per_run: CountDist::new(16, 22),
        helpers: vec![
            HelperSpec {
                name: "plugin".into(),
                triggers: vec![(0, 0.12), (1, 0.9)],
                activity: Activity::named("decode")
                    .io(IoOp::read("load_codec", "codec_libs", 2).times(4, 4))
                    .io(IoOp::read("stream_media", "plugin_stream", 2).times(5, 7))
                    .fresh(),
                lag: TimeDist::Uniform(0.3, 0.8),
            },
            HelperSpec {
                name: "profile_writer".into(),
                triggers: vec![(0, 0.5), (1, 0.5), (2, 0.6)],
                activity: Activity::named("flush_profile").io(IoOp::write(
                    "write_profile",
                    "profile_db",
                    1,
                )
                .times(1, 2)),
                lag: TimeDist::Uniform(0.5, 2.0),
            },
        ],
        final_pause: TimeDist::Uniform(0.5, 1.5),
        io_library_depth: 3,
    }
}

fn writer() -> AppSpec {
    AppSpec {
        name: "writer".into(),
        executions: 33,
        startup: Activity::named("startup")
            .io(IoOp::read("load_soffice", "oo_libs", 3).times(2200, 2200))
            .pause(TimeDist::Uniform(0.1, 0.3))
            .io(IoOp::open("open_doc", "document"))
            .io(IoOp::read("read_doc", "document", 4).times(9, 11))
            // The user reads the freshly opened document.
            .think(TimeDist::think(0.8, (2.0, 6.0), (10.0, 360.0))),
        shutdown: Some(
            Activity::named("shutdown")
                .io(IoOp::write("final_save", "document", 2).times(8, 15))
                .io(IoOp::write("save_config", "oo_config", 1).times(2, 4)),
        ),
        activities: vec![
            // 0: typing mostly hits memory; autosave trickles to disk.
            Activity::named("type_text")
                .io(IoOp::write("autosave_chunk", "doc_autosave", 1).with_prob(0.25))
                .think(TimeDist::think(0.10, (1.5, 6.0), (7.0, 400.0))),
            // 1: inserting an object pulls in graphic filter libraries.
            Activity::named("insert_object")
                .io(IoOp::read("load_filter", "graphic_filters", 2).times(30, 30))
                .io(IoOp::read("read_image", "images", 4).times(11, 13))
                .fresh()
                // Inserting an object is followed by layout fiddling.
                .think(TimeDist::think(0.85, (2.0, 6.0), (8.0, 400.0))),
            // 2: spell check walks the dictionaries.
            Activity::named("spellcheck")
                .io(IoOp::read("load_dict", "dictionary", 2).times(80, 80))
                // After a spell check the user proofreads.
                .think(TimeDist::think(0.85, (2.0, 6.0), (10.0, 400.0))),
            // 3: explicit save.
            Activity::named("save_doc")
                .io(IoOp::write_sync("save_doc", "document", 2).times(11, 13))
                .io(IoOp::write_sync("save_backup", "backup", 2).times(7, 7))
                // Saving punctuates ongoing work; typing resumes.
                .think(TimeDist::think(0.10, (2.0, 6.0), (8.0, 300.0))),
        ],
        states: vec![
            UserState {
                name: "composing".into(),
                activity_weights: vec![(0, 0.70), (1, 0.10), (2, 0.10), (3, 0.10)],
                think: TimeDist::think(0.13, (1.5, 6.0), (7.0, 400.0)),
                next: vec![(0, 0.80), (1, 0.20)],
            },
            UserState {
                name: "reviewing".into(),
                activity_weights: vec![(0, 0.30), (1, 0.20), (2, 0.30), (3, 0.20)],
                think: TimeDist::think(0.40, (2.0, 6.0), (8.0, 400.0)),
                next: vec![(0, 0.50), (1, 0.50)],
            },
        ],
        initial_state: 0,
        activities_per_run: CountDist::new(9, 12),
        helpers: vec![
            HelperSpec {
                name: "dictd".into(),
                triggers: vec![(0, 0.3), (2, 0.9)],
                activity: Activity::named("dict_lookup").io(IoOp::read(
                    "read_dict_page",
                    "dictionary",
                    2,
                )
                .times(8, 10)),
                lag: TimeDist::Uniform(0.2, 1.0),
            },
            HelperSpec {
                name: "recovery".into(),
                triggers: vec![(0, 0.4), (3, 0.8)],
                activity: Activity::named("write_recovery").io(IoOp::write(
                    "write_recovery",
                    "recovery_db",
                    1,
                )
                .times(3, 4)),
                lag: TimeDist::Uniform(0.5, 2.0),
            },
        ],
        final_pause: TimeDist::Uniform(0.5, 1.5),
        io_library_depth: 3,
    }
}

fn impress() -> AppSpec {
    AppSpec {
        name: "impress".into(),
        executions: 19,
        startup: Activity::named("startup")
            .io(IoOp::read("load_soffice", "oo_libs", 3).times(4500, 4500))
            .pause(TimeDist::Uniform(0.1, 0.3))
            .io(IoOp::open("open_pres", "presentation"))
            .io(IoOp::read("read_pres", "presentation", 4).times(64, 66))
            .io(IoOp::read("load_templates", "templates", 2).times(50, 50))
            .think(TimeDist::think(0.8, (2.0, 6.0), (10.0, 360.0))),
        shutdown: Some(
            Activity::named("shutdown")
                .io(IoOp::write("final_save", "presentation", 4).times(15, 30)),
        ),
        activities: vec![
            // 0: slide edits with autosave trickle.
            Activity::named("edit_slide")
                .io(IoOp::write("autosave_chunk", "pres_autosave", 1).with_prob(0.25))
                .think(TimeDist::think(0.08, (2.0, 6.0), (7.0, 400.0))),
            // 1: image insertion: filters plus bulk pixel data.
            Activity::named("insert_image")
                .io(IoOp::read("load_filter", "graphic_filters", 2).times(30, 30))
                .io(IoOp::read("read_image", "images", 8).times(84, 86))
                .fresh()
                .think(TimeDist::think(0.8, (2.0, 6.0), (8.0, 400.0))),
            // 2: previewing renders every slide's assets.
            Activity::named("preview")
                .io(IoOp::read("render_slides", "presentation", 4).times(505, 505))
                // The user watches the rendered preview.
                .think(TimeDist::think(0.85, (3.0, 6.0), (10.0, 400.0))),
            // 3: explicit save.
            Activity::named("save_pres")
                .io(IoOp::write_sync("save_pres", "presentation", 4).times(26, 26))
                .think(TimeDist::think(0.10, (2.0, 6.0), (8.0, 300.0))),
        ],
        states: vec![
            UserState {
                name: "designing".into(),
                activity_weights: vec![(0, 0.55), (1, 0.25), (2, 0.10), (3, 0.10)],
                think: TimeDist::think(0.18, (2.0, 6.0), (7.0, 400.0)),
                next: vec![(0, 0.75), (1, 0.25)],
            },
            UserState {
                name: "polishing".into(),
                activity_weights: vec![(0, 0.45), (1, 0.10), (2, 0.25), (3, 0.20)],
                think: TimeDist::think(0.38, (2.0, 6.0), (8.0, 400.0)),
                next: vec![(0, 0.50), (1, 0.50)],
            },
        ],
        initial_state: 0,
        activities_per_run: CountDist::new(10, 14),
        helpers: vec![
            HelperSpec {
                name: "thumbnailer".into(),
                triggers: vec![(1, 0.8), (2, 0.6)],
                activity: Activity::named("thumbnail")
                    .io(IoOp::read("read_thumb_src", "images", 4).times(14, 16))
                    .io(IoOp::write("write_thumbs", "thumb_cache", 2).times(6, 8)),
                lag: TimeDist::Uniform(0.3, 1.2),
            },
            HelperSpec {
                name: "recovery".into(),
                triggers: vec![(0, 0.4), (3, 0.8)],
                activity: Activity::named("write_recovery").io(IoOp::write(
                    "write_recovery",
                    "recovery_db",
                    1,
                )
                .times(3, 4)),
                lag: TimeDist::Uniform(0.5, 2.0),
            },
        ],
        final_pause: TimeDist::Uniform(0.5, 1.5),
        io_library_depth: 3,
    }
}

fn xemacs() -> AppSpec {
    AppSpec {
        name: "xemacs".into(),
        executions: 37,
        startup: Activity::named("startup")
            .io(IoOp::read("load_elisp", "elisp", 2).times(1800, 1800))
            .pause(TimeDist::Uniform(0.05, 0.2))
            .io(IoOp::open("open_file", "source"))
            .io(IoOp::read("read_file", "source", 4).times(3, 5))
            .think(TimeDist::think(0.8, (2.0, 6.0), (8.0, 400.0))),
        shutdown: None,
        activities: vec![
            // 0: autosave while the user types and thinks.
            Activity::named("autosave")
                .io(IoOp::write("autosave", "autosave_file", 1).with_prob(0.3))
                .think(TimeDist::think(0.10, (1.5, 6.0), (6.5, 400.0))),
            // 1: explicit save of the buffer.
            Activity::named("save_file")
                .io(IoOp::write_sync("save_buffer", "source", 1).times(7, 8))
                .think(TimeDist::think(0.10, (1.5, 6.0), (6.5, 300.0))),
            // 2: visiting another file.
            Activity::named("open_file")
                .io(IoOp::open("open_file", "other_source"))
                .io(IoOp::read("read_file", "other_source", 4).times(3, 5))
                .fresh()
                // A newly visited file gets read and edited.
                .think(TimeDist::think(0.8, (1.5, 6.0), (7.0, 400.0))),
        ],
        states: vec![
            UserState {
                name: "typing".into(),
                activity_weights: vec![(0, 0.60), (1, 0.20), (2, 0.20)],
                think: TimeDist::think(0.22, (1.5, 6.0), (6.5, 400.0)),
                next: vec![(0, 0.80), (1, 0.20)],
            },
            UserState {
                name: "browsing".into(),
                activity_weights: vec![(0, 0.20), (1, 0.20), (2, 0.60)],
                think: TimeDist::think(0.30, (1.0, 4.0), (6.5, 240.0)),
                next: vec![(0, 0.60), (1, 0.40)],
            },
        ],
        initial_state: 0,
        activities_per_run: CountDist::new(5, 9),
        helpers: vec![HelperSpec {
            name: "compile".into(),
            triggers: vec![(1, 0.15)],
            activity: Activity::named("compile")
                .io(IoOp::read("read_sources", "source", 2).times(10, 20))
                .io(IoOp::write("write_objects", "build_out", 2).times(8, 16))
                .fresh(),
            lag: TimeDist::Uniform(0.5, 1.5),
        }],
        final_pause: TimeDist::Uniform(0.4, 1.2),
        io_library_depth: 2,
    }
}

fn nedit() -> AppSpec {
    // §6: "nedit is primarily used to quickly open correct/modify
    // source code … once a file is modified it is saved and nedit is
    // closed. Nedit is the only application with [a] single process."
    // One long think per execution ⇒ exactly one idle period, matching
    // Table 1's 29 idle periods in 29 executions.
    AppSpec {
        name: "nedit".into(),
        executions: 29,
        startup: Activity::named("startup")
            .io(IoOp::read("load_nedit", "nedit_libs", 2).times(200, 200))
            .io(IoOp::open("open_file", "source"))
            .io(IoOp::read("read_file", "source", 4).times(2, 5))
            .fresh(),
        shutdown: None,
        activities: vec![Activity::named("save_fix")
            .io(IoOp::write_sync("save_file", "source", 1).times(3, 5))
            // The fix is saved and nedit is closed immediately (§6).
            .think(TimeDist::Uniform(0.5, 1.5))],
        states: vec![UserState {
            name: "fixing".into(),
            activity_weights: vec![(0, 1.0)],
            think: TimeDist::LogUniform(30.0, 300.0),
            next: vec![(0, 1.0)],
        }],
        initial_state: 0,
        activities_per_run: CountDist::exactly(1),
        helpers: vec![],
        final_pause: TimeDist::Uniform(0.3, 0.8),
        io_library_depth: 2,
    }
}

fn mplayer() -> AppSpec {
    // §6.3: mplayer keeps an 8 MB buffer full during playback (refills
    // well below the breakeven time), and the trace's idle energy comes
    // from draining the buffer when I/O stops before the movie ends.
    AppSpec {
        name: "mplayer".into(),
        executions: 31,
        startup: Activity::named("startup")
            .io(IoOp::read("load_libs", "mplayer_libs", 2).times(90, 120))
            .io(IoOp::open("open_movie", "movie"))
            .io(IoOp::read("fill_buffer", "movie", 4).times(500, 500))
            .fresh(),
        shutdown: None,
        activities: vec![
            Activity::named("refill").io(IoOp::read("refill_buffer", "movie", 2).times(30, 30)),
            // Pausing redraws the on-screen display — a distinct PC
            // path immediately before the pause's idle period.
            Activity::named("pause_osd")
                .io(IoOp::read("read_osd_skin", "skin", 2).times(2, 2))
                .think(TimeDist::LogUniform(12.0, 120.0)),
        ],
        states: vec![
            UserState {
                name: "playing".into(),
                activity_weights: vec![(0, 1.0)],
                // Refills arrive faster than the 1 s wait-window, so a
                // stale ladder match is always cancelled before the
                // disk spins down (§4.1.1's filter at work).
                think: TimeDist::Uniform(0.5, 0.9),
                next: vec![(0, 0.9985), (1, 0.0015)],
            },
            UserState {
                name: "paused".into(),
                activity_weights: vec![(1, 1.0)],
                think: TimeDist::LogUniform(12.0, 120.0),
                next: vec![(0, 1.0)],
            },
        ],
        initial_state: 0,
        activities_per_run: CountDist::stepped(420, 540, 60),
        helpers: vec![HelperSpec {
            name: "gui".into(),
            triggers: vec![(0, 0.004)],
            activity: Activity::named("render_osd")
                .io(IoOp::read("read_skin", "skin", 1).times(2, 5)),
            lag: TimeDist::Uniform(0.0, 1.0),
        }],
        final_pause: TimeDist::LogUniform(16.0, 30.0),
        io_library_depth: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppModel;

    #[test]
    fn all_apps_generate_valid_traces() {
        // One run each (full suites are exercised by integration tests).
        for app in PaperApp::ALL {
            let spec = app.spec();
            let run = spec.generate_run(1, 0).unwrap_or_else(|e| {
                panic!("{app}: {e}");
            });
            assert!(run.io_count() > 50, "{app} too few I/Os");
        }
    }

    #[test]
    fn all_paper_specs_validate() {
        for app in PaperApp::ALL {
            app.spec()
                .validate()
                .unwrap_or_else(|e| panic!("{app}: {e}"));
        }
    }

    #[test]
    fn execution_counts_match_table1() {
        let expected = [49, 33, 19, 37, 29, 31];
        for (app, n) in PaperApp::ALL.iter().zip(expected) {
            assert_eq!(app.spec().executions, n, "{app}");
        }
    }

    #[test]
    fn nedit_is_single_process() {
        let run = PaperApp::Nedit.spec().generate_run(1, 0).unwrap();
        assert_eq!(run.pids().len(), 1);
    }

    #[test]
    fn multiprocess_apps_fork_helpers() {
        for app in [PaperApp::Mozilla, PaperApp::Writer, PaperApp::Impress] {
            let run = app.spec().generate_run(1, 0).unwrap();
            assert!(run.pids().len() >= 3, "{app} should run ≥3 processes");
        }
    }

    #[test]
    fn mozilla_media_pages_share_prefix_pcs() {
        // Subpath aliasing: the first I/Os of plain and media page
        // visits must come from the same PCs. Generate a trace and check
        // that load_plugin PCs coexist with shared load_html PCs.
        let trace = PaperApp::Mozilla.spec().generate_trace(3).unwrap();
        let pcs: std::collections::HashSet<_> = trace
            .runs
            .iter()
            .flat_map(|run| run.io_events().map(|io| io.pc))
            .collect();
        // A media page adds exactly 2 sites to the simple page's 5
        // (within the same activity name), so distinct PCs stay small.
        assert!(pcs.len() < 60, "{}", pcs.len());
    }

    #[test]
    fn mplayer_refills_stay_below_breakeven() {
        let run = PaperApp::Mplayer.spec().generate_run(5, 0).unwrap();
        let times: Vec<_> = run
            .io_events()
            .filter(|io| io.pid == pcap_types::Pid(1))
            .map(|io| io.time)
            .collect();
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let long = gaps.iter().filter(|&&g| g > 5.43).count();
        // Rare user pauses allowed; steady playback must not generate
        // long gaps of its own (refills arrive every 0.5–0.9 s).
        assert!(long <= 8, "{long} long gaps during playback");
        // And the bulk of gaps must be sub-wait-window refill cadence.
        let sub_window = gaps.iter().filter(|&&g| g < 1.0).count();
        assert!(sub_window as f64 > 0.9 * gaps.len() as f64);
    }

    #[test]
    fn display_names() {
        assert_eq!(PaperApp::Mozilla.to_string(), "mozilla");
        assert_eq!(paper_suite().len(), 6);
    }
}
