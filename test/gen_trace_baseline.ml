(* The golden fig-2a failover trace: one Centaur cold start on the
   Figure 2(a) topology, then link B-D down and back up. The run must
   satisfy every Obs.Check invariant; its digest is printed, and
   `dune runtest` diffs it against test/trace-baseline.txt.

   The digest is timestamp-free, so it only moves when the event
   sequence of the scenario changes. Review such a diff like any other
   semantic change and accept it with `dune promote`. *)

let link_bd = 2 (* figure2a link ids, in declaration order *)

let () =
  let trace = Obs.Trace.create () in
  let topo = Fixtures.figure2a () in
  let runner = Protocols.Centaur_net.network ~trace topo in
  ignore (runner.Sim.Runner.cold_start ());
  ignore (runner.Sim.Runner.flip ~link_id:link_bd ~up:false);
  ignore (runner.Sim.Runner.flip ~link_id:link_bd ~up:true);
  Obs.Check.expect_ok ~what:"fig2a centaur failover" trace;
  print_string (Obs.Trace.digest trace)
