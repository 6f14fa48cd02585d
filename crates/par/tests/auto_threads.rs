//! `MDG_THREADS` is read once per process, on the first parallel call.
//! This binary holds a single test because it sets the variable: no other
//! test may share the process with it.

#[test]
fn mdg_threads_is_resolved_once_per_process() {
    std::env::set_var("MDG_THREADS", "3");
    assert_eq!(mdg_par::threads(), 3);
    // Later changes to the environment do not move the automatic count...
    std::env::set_var("MDG_THREADS", "5");
    assert_eq!(mdg_par::threads(), 3);
    // ...while the programmatic override applies at once and can be lifted.
    mdg_par::set_threads(2);
    assert_eq!(mdg_par::threads(), 2);
    mdg_par::set_threads(0);
    assert_eq!(mdg_par::threads(), 3);
    assert_eq!(mdg_par::par_map(40, |i| i * i)[39], 39 * 39);
}
