//! The `SIMDRAM_*` override table read from the real process environment.
//!
//! This binary holds a single test because it sets environment variables: every other
//! test reads them through `SimdramConfig::functional_test()`, so no other test may run
//! in the same process.

use simdram_core::{CoreError, SimdramConfig};

#[test]
fn malformed_override_is_a_typed_error_and_a_documented_panic() {
    std::env::set_var("SIMDRAM_FUNC", "compiled:4");
    let err = SimdramConfig::default().with_env_overrides().unwrap_err();
    match &err {
        CoreError::Config(e) => {
            assert_eq!(e.var, "SIMDRAM_FUNC");
            assert_eq!(e.value, "compiled:4");
        }
        other => panic!("expected a configuration error, got {other:?}"),
    }
    assert!(err.to_string().contains("SIMDRAM_FUNC"));

    // The test and demo presets turn the same error into their one documented panic.
    let panic = std::panic::catch_unwind(SimdramConfig::functional_test).unwrap_err();
    let message = panic.downcast_ref::<String>().expect("a formatted message");
    assert!(message.contains("SIMDRAM_FUNC"), "{message}");
    assert!(std::panic::catch_unwind(SimdramConfig::demo).is_err());

    // A well-formed value is applied.
    std::env::set_var("SIMDRAM_FUNC", " Compiled ");
    let config = SimdramConfig::default().with_env_overrides().unwrap();
    assert!(config.functional.is_compiled());
}
