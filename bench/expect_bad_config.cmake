# Bad configuration values must end a bench with a message and exit code 2,
# not std::terminate or a silently empty run.  Run by ctest as
#   cmake -DFIG08=<fig08 binary> -DCLOUDSIM=<abl_cloudsim_scale binary>
#         -DCLIENTSIM=<abl_client_scale binary>
#         -DQOS_FEEDBACK=<abl_qos_feedback binary>
#         -DQOS_RESTORATION=<abl_qos_restoration binary>
#         -DFIG12=<fig12_migration_latency binary>
#         -DFIG07=<fig07_mle_accuracy binary>
#         -DMLE_SENSITIVITY=<abl_mle_sensitivity binary>
#         -DADAPTIVE=<abl_adaptive_attackers binary>
#         -DSTRATEGIES=<abl_attacker_strategies binary>
#         -DFIG05=<fig05_dp_runtime binary>
#         -DFIG06=<fig06_greedy_runtime binary>
#         -DCOST_EXPANSION=<abl_cost_vs_expansion binary>
#         -DMICRO=<micro_algorithms binary>
#         -P expect_bad_config.cmake

function(expect_exit_2 expected_stderr)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR "`${ARGN}` exited with '${code}', expected 2:\n${err}")
  endif()
  string(FIND "${err}" "${expected_stderr}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "`${ARGN}` stderr lacks '${expected_stderr}':\n${err}")
  endif()
endfunction()

expect_exit_2("fig08_shuffles_vs_bots: --reps must be >= 1 (got -1)"
              ${FIG08} --reps -1)
expect_exit_2("abl_cloudsim_scale: --horizon must be a finite number"
              ${CLOUDSIM} --horizon nan)
expect_exit_2("abl_cloudsim_scale: --max-scale must be >= 1 (got -5)"
              ${CLOUDSIM} --max-scale -5)
expect_exit_2("abl_client_scale: --max-scale must be >= 1 (got -5)"
              ${CLIENTSIM} --max-scale -5)
expect_exit_2("abl_client_scale: --rounds must be >= 1 (got 0)"
              ${CLIENTSIM} --rounds 0)
expect_exit_2("abl_qos_feedback: --threshold must be finite and > 0 (got nan)"
              ${QOS_FEEDBACK} --threshold nan)
expect_exit_2("abl_qos_restoration: --window must be finite and > 0 (got 0"
              ${QOS_RESTORATION} --window 0)
expect_exit_2("fig12_migration_latency: --flood-pps must be finite and >= 0"
              ${FIG12} --flood-pps -1)
expect_exit_2(
  "fig07_mle_accuracy: --clients must be >= --replicas = 100 (got 50)"
  ${FIG07} --clients 50 --replicas 100)
expect_exit_2(
  "fig07_mle_accuracy: --clients must be a multiple of --replicas = 100 (got 1099)"
  ${FIG07} --clients 1099 --replicas 100)
expect_exit_2("fig07_mle_accuracy: --clients must be >= 350 (got 200)"
              ${FIG07} --clients 200)
expect_exit_2("abl_mle_sensitivity: --replicas must be >= 2 (got 1)"
              ${MLE_SENSITIVITY} --replicas 1)
expect_exit_2("abl_mle_sensitivity: --bots must be >= 1 (got 0)"
              ${MLE_SENSITIVITY} --bots 0 --reps 2)
expect_exit_2("abl_adaptive_attackers: --replicas must be >= 2 (got 0)"
              ${ADAPTIVE} --replicas 0)
expect_exit_2("abl_attacker_strategies: --bots must be >= 1 (got 0)"
              ${STRATEGIES} --bots 0)
expect_exit_2("fig05_dp_runtime: --scaled-clients must be >= 20 (got 0)"
              ${FIG05} --scaled-clients 0)
expect_exit_2("fig05_dp_runtime: --threads must be >= 0 (got -1)"
              ${FIG05} --threads -1)
expect_exit_2("fig06_greedy_runtime: --iters must be >= 1 (got 0)"
              ${FIG06} --iters 0)
expect_exit_2("abl_cost_vs_expansion: --replicas must be >= 2 (got 1)"
              ${COST_EXPANSION} --replicas 1)
expect_exit_2("abl_cost_vs_expansion: --replicas must be >= 2 (got 0)"
              ${COST_EXPANSION} --replicas 0)
expect_exit_2("micro_algorithms: --bench-json <path> takes no other flags"
              ${MICRO} --bench-json unused.json --max-warm-ms 2000)
