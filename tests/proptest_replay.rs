//! Replaying one property-test case from the state its failure report
//! prints.
//!
//! The vendored mini-proptest does not shrink. Instead a failing case's
//! report names the generator state the case started from, and
//! `PROPTEST_REPLAY=<test name>:<state>` reruns exactly that case, alone.

use proptest::prelude::*;
use proptest::{replay_state, run_cases, TestRng, REPLAY_ENV};

/// The inputs one case of the demo property draws.
fn draw(rng: &mut TestRng) -> (u64, Vec<u32>) {
    (0u64..1_000, proptest::collection::vec(0u32..50, 0..6)).sample(rng)
}

#[test]
fn a_failing_case_replays_alone_from_its_reported_state() {
    let mut seen = Vec::new();
    let failure = run_cases("demo", 64, None, &mut |rng| {
        let (x, v) = draw(rng);
        seen.push((x, v.clone()));
        assert!(x % 17 != 3, "x = {x}");
    })
    .expect_err("some case draws x ≡ 3 (mod 17)");
    let bad = seen[failure.case as usize].clone();
    assert_eq!(
        seen.len(),
        failure.case as usize + 1,
        "stops at the first failure"
    );

    // the report prints `<name>:<state>` in this form
    let spec = format!("demo:{:#018x}", failure.state);
    let state = replay_state(&spec, "demo").expect("the spec names this test");
    assert_eq!(state, failure.state);

    let mut replayed = Vec::new();
    let again = run_cases("demo", 64, Some(state), &mut |rng| {
        let (x, v) = draw(rng);
        replayed.push((x, v.clone()));
        assert!(x % 17 != 3, "x = {x}");
    })
    .expect_err("the replayed case fails again");
    assert_eq!(again.case, 0);
    assert_eq!(replayed, vec![bad]);
}

#[test]
fn cases_draw_the_stream_they_always_drew() {
    // one generator seeded by the test name, sampled case after case: the
    // inputs every existing property test has been drawing
    let mut expected = Vec::new();
    let mut rng = TestRng::deterministic("stream");
    for _ in 0..32 {
        expected.push(draw(&mut rng));
    }
    let mut got = Vec::new();
    let ran = run_cases("stream", 32, None, &mut |rng| got.push(draw(rng)));
    assert_eq!(ran.ok(), Some(32));
    assert_eq!(got, expected);
}

#[test]
fn replay_spec_names_one_test() {
    assert_eq!(replay_state("a:0x10", "a"), Some(16));
    assert_eq!(replay_state(" a:0000000000000010\n", "a"), Some(16));
    assert_eq!(replay_state("mod::a:0x10", "mod::a"), Some(16));
    assert_eq!(replay_state("b:0x10", "a"), None);
    assert_eq!(replay_state("a:zz", "a"), None);
    assert_eq!(replay_state("a", "a"), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Prints every draw; `replay_env_var_runs_only_the_named_case` runs this
    // test in a child process with the replay variable set.
    #[test]
    fn echo_draws(x in 0u64..1_000_000) {
        println!("draw {x}");
    }
}

#[test]
fn replay_env_var_runs_only_the_named_case() {
    // the state case 5 of `echo_draws` starts from, and what it draws
    let mut rng = TestRng::deterministic("echo_draws");
    for _ in 0..5 {
        (0u64..1_000_000).sample(&mut rng);
    }
    let state = rng.state();
    let expected = (0u64..1_000_000).sample(&mut rng);

    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "echo_draws",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .env(REPLAY_ENV, format!("echo_draws:{state:#018x}"))
        .output()
        .expect("the test binary runs");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // the harness prints its own status on the same line as the draw
    let draws: Vec<&str> = stdout
        .split("draw ")
        .skip(1)
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    assert_eq!(draws, vec![expected.to_string()], "{stdout}");
}
