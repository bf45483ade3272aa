//! Online/offline parity: the daemon's decision stream for the six
//! seed-42 paper apps is byte-identical to the offline audit stream
//! (`audit_prepared`), for any shard count, client interleaving and
//! transport (Unix socket or TCP), and one daemon serving both
//! transports at once answers them alike.

mod serve_common;

use pcap_dpm::serve::{put_record, ClientFrame, Endpoint, ServeConfig};
use pcap_dpm::sim::{audit_prepared, DecisionRecord, PreparedTrace, SimConfig};
use pcap_dpm::workload::{AppModel, DevicePopulation, PaperApp};
use serve_common::{decisions_of, drive, push_run, temp_sock};

/// Offline reference: per-app audit records at seed 42.
fn offline_records(config: &SimConfig) -> Vec<Vec<DecisionRecord>> {
    PaperApp::ALL
        .iter()
        .map(|app| {
            let trace = app.spec().generate_trace(42).unwrap();
            let prepared = PreparedTrace::build(&trace, config);
            audit_prepared(&prepared, config, ServeConfig::default().kind).records
        })
        .collect()
}

/// Encodes records exactly as the wire does, so the comparison is
/// byte-level (stricter than `PartialEq`, e.g. for `-0.0`).
fn record_bytes(records: &[DecisionRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for r in records {
        put_record(&mut buf, r);
    }
    buf
}

/// Client orderings exercised against the daemon.
enum Order {
    /// All runs of device 0, then device 1, ...
    DeviceMajor,
    /// Run 0 of every device, then run 1 of every device, ...
    Interleaved,
}

fn script_six_apps(pop: &DevicePopulation, order: Order) -> Vec<ClientFrame> {
    let devices = pop.devices();
    let mut script = Vec::new();
    match order {
        Order::DeviceMajor => {
            for device in 0..devices {
                for run in 0..pop.runs(device) {
                    let trace = pop.generate_run(device, run).unwrap();
                    push_run(&mut script, device, &trace);
                }
            }
        }
        Order::Interleaved => {
            let max_runs = (0..devices).map(|d| pop.runs(d)).max().unwrap();
            for run in 0..max_runs {
                for device in 0..devices {
                    if run < pop.runs(device) {
                        let trace = pop.generate_run(device, run).unwrap();
                        push_run(&mut script, device, &trace);
                    }
                }
            }
        }
    }
    for device in 0..devices {
        script.push(ClientFrame::DeviceEnd { device });
    }
    script
}

fn assert_parity(shards: usize, order: Order, listen: Endpoint, offline: &[Vec<DecisionRecord>]) {
    let pop = DevicePopulation::new(6, 42);
    let script = script_six_apps(&pop, order);
    let config = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    let handle = pcap_dpm::serve::start(config, std::slice::from_ref(&listen), None).unwrap();
    // Port 0 binds an ephemeral port: dial the address the daemon got.
    let dial = handle.tcp_addr().map_or(listen, Endpoint::Tcp);
    let frames = drive(&dial, &script, 6);
    handle.shutdown();
    for device in 0..6u64 {
        let online = decisions_of(&frames, device);
        assert_eq!(
            online, offline[device as usize],
            "{dial:?}: device {device} decision stream diverged (shards={shards})"
        );
        assert_eq!(
            record_bytes(&online),
            record_bytes(&offline[device as usize]),
            "{dial:?}: device {device} decision bytes diverged (shards={shards})"
        );
    }
}

#[test]
fn serve_decisions_match_offline_audit_across_shard_counts() {
    let config = SimConfig::paper();
    let offline = offline_records(&config);
    assert!(offline.iter().any(|r| !r.is_empty()));
    let uds = |tag| Endpoint::Uds(temp_sock(tag));
    let tcp = Endpoint::Tcp(([127, 0, 0, 1], 0).into());
    assert_parity(1, Order::DeviceMajor, uds("parity-s1"), &offline);
    assert_parity(3, Order::Interleaved, uds("parity-s3"), &offline);
    assert_parity(3, Order::Interleaved, tcp, &offline);
    assert_parity(8, Order::Interleaved, uds("parity-s8"), &offline);
}

/// One daemon listens on a TCP port and on a Unix path where a dead
/// process left its socket file: it takes the path over, serves the
/// same device script over both transports with byte-identical
/// decision streams, and removes the socket file at shutdown.
#[test]
fn one_daemon_takes_over_a_stale_socket_and_serves_both_transports_alike() {
    let path = temp_sock("takeover");
    // A listener that drops without unlinking leaves its socket file
    // behind, as a crashed daemon does; binding over it fails.
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    assert!(std::os::unix::net::UnixListener::bind(&path).is_err());
    let config = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let listen = [
        Endpoint::Tcp(([127, 0, 0, 1], 0).into()),
        Endpoint::Uds(path.clone()),
    ];
    let handle = pcap_dpm::serve::start(config, &listen, None).unwrap();
    let script = script_six_apps(&DevicePopulation::new(6, 42), Order::Interleaved);
    let tcp = drive(&Endpoint::Tcp(handle.tcp_addr().unwrap()), &script, 6);
    let uds = drive(&Endpoint::Uds(path.clone()), &script, 6);
    handle.shutdown();
    assert!(!path.exists(), "shutdown must remove {}", path.display());
    for device in 0..6u64 {
        let decisions = decisions_of(&tcp, device);
        assert!(!decisions.is_empty(), "device {device}");
        assert_eq!(
            record_bytes(&decisions),
            record_bytes(&decisions_of(&uds, device)),
            "device {device}: TCP and UDS decision bytes diverged"
        );
    }
}
