let () =
  Alcotest.run "centaur-repro"
    [ ("prelude", Test_prelude.suite);
      ("bloom", Test_bloom.suite);
      ("net", Test_net.suite);
      ("as-rel", Test_as_rel.suite);
      ("policy", Test_policy.suite);
      ("policy-dsl", Test_policy_dsl.suite);
      ("permission-list", Test_permission_list.suite);
      ("solver", Test_solver.suite);
      ("pgraph", Test_pgraph.suite);
      ("path-store", Test_path_store.suite);
      ("stable", Test_stable.suite);
      ("vf-paths", Test_vf_paths.suite);
      ("builder", Test_builder.suite);
      ("node", Test_node.suite);
      ("sim", Test_sim.suite);
      ("topogen", Test_topogen.suite);
      ("static", Test_static.suite);
      ("protocols", Test_protocols.suite);
      ("failures", Test_failures.suite);
      ("naive-link-state", Test_naive_ls.suite);
      ("bgp-rcn", Test_rcn.suite);
      ("multipath", Test_multipath.suite);
      ("flat-layout", Test_flat.suite);
      ("privacy", Test_privacy.suite);
      ("faults", Test_faults.suite);
      ("containment", Test_containment.suite);
      ("incremental", Test_incremental.suite);
      ("stream", Test_stream.suite);
      ("obs", Test_obs.suite);
      ("parsers", Test_parsers.suite);
      ("verify", Test_verify.suite);
      ("experiments", Test_experiments.suite) ]
