//! The differential oracle: every case of `gsr_tests::oracle_cases`, asked
//! of every `(method, policy)` row of `gsr_tests::rows` through every path
//! (`gsr_tests::every_path`), answers as BFS does, and costs and weighs what
//! the row's index built at one thread does. A failure lists each failing
//! cell as `path / method (policy) / case / v / rect`. The suites ask their
//! own networks through the same table.

use gsr_core::Method;
use gsr_tests::{assert_oracle, every_path, oracle_cases};

#[test]
fn every_path_of_every_method_answers_as_bfs() {
    assert_oracle(&oracle_cases(), &Method::ALL, &every_path());
}
