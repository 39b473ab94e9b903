//! The same seed gives byte-identical inputs; another seed differs.

use agentnet_benchmark::serve::request_trace;
use agentnet_benchmark::sims::network_builder;

#[test]
fn request_trace_is_a_function_of_the_seed() {
    let trace = request_trace(7, 1_000, 5_000);
    assert_eq!(trace.bytes(), request_trace(7, 1_000, 5_000).bytes());
    assert_ne!(trace.bytes(), request_trace(8, 1_000, 5_000).bytes());
}

#[test]
fn network_inputs_are_a_function_of_the_seed() {
    for low_mobility in [false, true] {
        let builder = network_builder(low_mobility, 1_000);
        let nodes = builder.build(7).expect("preset builds").nodes();
        assert_eq!(nodes, builder.build(7).expect("preset builds").nodes());
        assert_ne!(nodes, builder.build(8).expect("preset builds").nodes());
    }
}
