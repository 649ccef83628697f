(* Parser robustness: every text parser answers a damaged input with a
   value, never an exception. Each property takes a valid input, applies
   a few random byte mutations (flip a bit, insert a byte, delete a
   byte, cut the tail) and hands the result to the parser, which must
   return [Ok], [Error] or [None]. Inserted bytes are drawn half from
   the inputs' own syntax (digits, signs, separators, braces, quotes)
   so mutations reach past the first token. *)

let syntax = "0123456789-.|{}:,\"# \n"

let mutate rng s =
  let s = ref s in
  for _ = 0 to Random.State.int rng 4 do
    let str = !s in
    let len = String.length str in
    let pos = if len = 0 then 0 else Random.State.int rng len in
    let byte () =
      if Random.State.bool rng then Char.chr (Random.State.int rng 256)
      else syntax.[Random.State.int rng (String.length syntax)]
    in
    s :=
      match Random.State.int rng 4 with
      | 0 when len > 0 ->
        let b = Bytes.of_string str in
        Bytes.set b pos
          (Char.chr (Char.code str.[pos] lxor (1 lsl Random.State.int rng 8)));
        Bytes.to_string b
      | 1 -> String.sub str 0 pos ^ String.make 1 (byte ()) ^ String.sub str pos (len - pos)
      | 2 when len > 0 -> String.sub str 0 pos ^ String.sub str (pos + 1) (len - pos - 1)
      | _ -> String.sub str 0 pos
  done;
  !s

(* A case is one valid input and a mutation seed; the failing input is
   printed escaped. *)
let robust ~name ~inputs parse =
  let inputs = Array.of_list inputs in
  let mutated (i, seed) = mutate (Random.State.make [| seed |]) inputs.(i) in
  QCheck.Test.make ~name ~count:(Helpers.qcheck_count 2000)
    (QCheck.make
       ~print:(fun case -> String.escaped (mutated case))
       QCheck.Gen.(pair (int_bound (Array.length inputs - 1)) int))
    (fun case ->
      parse (mutated case);
      true)

let topo_io =
  robust ~name:"Topo_io.of_string never raises"
    ~inputs:
      [ Topo_io.to_string (Helpers.random_brite ~seed:3 ~n:12 ~m:2);
        Topo_io.to_string (Helpers.random_as_topology ~seed:5 ~n:15) ]
    (fun s -> match Topo_io.of_string s with Ok _ | Error _ -> ())

let as_rel =
  robust ~name:"As_rel.parse never raises" ~inputs:[ Test_as_rel.sample ]
    (fun s -> match As_rel.parse ~seed:1 s with Ok _ | Error _ -> ())

let policy =
  robust ~name:"Policy.parse + compile never raise"
    ~inputs:[ Test_policy_dsl.rich_config ]
    (fun s ->
      match Policy.parse s with
      | Error _ -> ()
      | Ok config -> (
        match Policy.compile ~num_nodes:64 config with Ok _ | Error _ -> ()))

let trace =
  robust ~name:"Trace.event_of_json never raises"
    ~inputs:(List.map Obs.Trace.event_to_json Test_obs.specimen_events)
    (fun s -> ignore (Obs.Trace.event_of_json s))

let suite = List.map QCheck_alcotest.to_alcotest [ topo_io; as_rel; policy; trace ]
