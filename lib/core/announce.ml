type t = {
  sender : int;
  delta : Pgraph.delta;
}

let make ~sender delta = { sender; delta }

let units t = max 1 (Pgraph.delta_units t.delta)

(* Wire encoding the byte accounting charges for: an 8-byte message
   header (sender, section counts); 8 bytes per link key (two node ids);
   1 presence flag plus the Bloom-compressed Permission List on each
   inserted link, priced in closed form (equal to the size of the
   encoded filters; an empty list has none); 4 bytes per destination
   mark. *)
let header_bytes = 8
let link_key_bytes = 8
let dest_bytes = 4

let wire_bytes ?(plist_fp_rate = 0.01) t =
  let d = t.delta in
  List.fold_left
    (fun acc (_parent, _child, pl) ->
      acc + link_key_bytes + 1
      + Permission_list.compressed_size_bytes pl ~fp_rate:plist_fp_rate)
    header_bytes d.Pgraph.add_links
  + (List.length d.Pgraph.remove_links * link_key_bytes)
  + (List.length d.Pgraph.add_dests + List.length d.Pgraph.remove_dests)
    * dest_bytes
