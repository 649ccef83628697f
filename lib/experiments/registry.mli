(** Uniform access to every reproduced table and figure.

    Each entry regenerates one artifact of the paper's evaluation (or
    one of this repo's extensions) and renders it as text in the paper's
    layout. This list is the one definition of what [bin/main.exe exp]
    runs: [exp all] runs every entry in this order, and its stdout at
    [--quick --seed 42] is the committed baseline. *)

type batch
(** One configuration's run. Workloads that several entries render —
    the fig6/fig7 link-flip sweep and the table4/table5 P-graph
    analysis — are computed on first use and shared by every entry run
    against the same batch. Not for concurrent use. *)

val batch : Config.t -> batch

type entry = {
  id : string;        (** "table3" … "ablation-multipath" *)
  title : string;
  run : batch -> string;  (** regenerate and render *)
}

val all : entry list

val find : string -> entry option

val ids : string list
