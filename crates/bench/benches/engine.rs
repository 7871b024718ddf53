//! Microbenchmarks of the simulation kernel and end-to-end job runs.

use bench::bench;
use hybrid_core::{run_job, Architecture};
use simcore::{EventQueue, FlowId, FlowNetwork, SimTime};
use workload::apps;

const GB: u64 = 1 << 30;

fn bench_event_queue() {
    bench("event_queue/push_pop_10k", 20, || {
        let mut q = EventQueue::<u64>::new();
        for i in 0..10_000u64 {
            // Scatter times deterministically to exercise the heap.
            q.push(SimTime(i.wrapping_mul(2654435761) % 1_000_000_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = q.pop() {
            acc = acc.wrapping_add(e);
        }
        acc
    });
}

fn bench_flow_network() {
    bench("flow_network/multi_resource_churn", 20, || {
        let mut net = FlowNetwork::new();
        let resources: Vec<_> = (0..24)
            .map(|i| net.add_resource(format!("r{i}"), 1e8))
            .collect();
        let mut now = SimTime::ZERO;
        for i in 0..500u64 {
            let path = [
                resources[(i % 24) as usize],
                resources[((i * 7) % 24) as usize],
            ];
            let path: Vec<_> = if path[0] == path[1] {
                vec![path[0]]
            } else {
                path.to_vec()
            };
            net.add_flow(now, FlowId(i), 5e6, &path, None);
            if i % 3 == 0 {
                if let Some(t) = net.next_completion_time(now) {
                    now = t;
                    net.poll_completions(now);
                }
            }
        }
        while let Some(t) = net.next_completion_time(now) {
            now = t;
            net.poll_completions(now);
        }
        now
    });
}

fn bench_single_jobs() {
    for (name, arch, size) in [
        ("single_job/grep_1gb_out_ofs", Architecture::OutOfs, GB),
        (
            "single_job/grep_16gb_out_ofs",
            Architecture::OutOfs,
            16 * GB,
        ),
        (
            "single_job/wordcount_16gb_up_ofs",
            Architecture::UpOfs,
            16 * GB,
        ),
        (
            "single_job/wordcount_16gb_out_hdfs",
            Architecture::OutHdfs,
            16 * GB,
        ),
    ] {
        let profile = if name.contains("grep") {
            apps::grep()
        } else {
            apps::wordcount()
        };
        bench(name, 5, || run_job(arch, &profile, size));
    }
}

fn main() {
    bench_event_queue();
    bench_flow_network();
    bench_single_jobs();
}
