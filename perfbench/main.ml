(* Repo benchmark: one workload per run, on one domain.

     main.exe --workload flip|churn|analyze --seed N --seconds S --trace 0|1
              [--report FILE]

   Prints a table, then as its last line a JSON object with [correct],
   [attempted], [failed] and the metrics: every end-to-end metric
   untraced, every per-layer metric traced. [--report] also writes the
   full report: schema, op definition and counts, and every metric with
   its unit, what it is per and how many of those it was taken from. *)

let workloads =
  [ ("flip", Flip.run); ("churn", Churn.run); ("analyze", Analyze.run) ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0
  and trace = ref (-1) and report = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME flip, churn or analyze");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer timers off or on");
      ("--report", Arg.Set_string report, "FILE write the full JSON report") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then fail "--seed must be given, >= 0";
  if !seconds < 1 then fail "--seconds must be given, >= 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let r =
    Pool.with_size 1 (fun () ->
        run ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1))
  in
  Report.print_human r;
  if !report <> "" then
    Out_channel.with_open_text !report (fun oc ->
        output_string oc (Report.full_json r);
        output_char oc '\n');
  match Report.missing r with
  | [] -> print_endline (Report.summary_line r)
  | names -> fail ("no value for " ^ String.concat ", " names)
