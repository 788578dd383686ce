module Sig = Vsymexec.Signals

type node = {
  cid : int;
  fname : string;
  eip : int;
  ret_addr : int;
  ts : float;
  thread : int;
  latency_us : float;
  parent : int option;
}

let node_of_entry (e : Record_match.entry) =
  let call = e.Record_match.call in
  let eip, ret_addr =
    match call.Sig.kind with
    | Sig.Call { eip; ret_addr } -> eip, ret_addr
    | Sig.Ret _ -> invalid_arg "Callpath: entry whose call record is a return"
  in
  {
    cid = call.Sig.cid;
    fname = call.Sig.fname;
    eip;
    ret_addr;
    ts = call.Sig.ts;
    thread = call.Sig.thread;
    latency_us = (match e.Record_match.latency_us with Some l -> l | None -> 0.);
    parent = None;
  }

let reconstruct entries =
  let nodes = List.map node_of_entry entries in
  let nodes = List.sort (fun a b -> Int.compare a.cid b.cid) nodes in
  let arr = Array.of_list nodes in
  Array.iteri
    (fun i a ->
      (* iterate candidates in cid order, keeping the smallest distance;
         later candidates win ties ("update the current distance") *)
      let best = ref None and best_dist = ref max_int in
      for j = 0 to i - 1 do
        let b = arr.(j) in
        if b.thread = a.thread && b.eip < a.ret_addr then begin
          let dist = a.ret_addr - b.eip in
          if dist <= !best_dist then begin
            best := Some b.cid;
            best_dist := dist
          end
        end
      done;
      arr.(i) <- { a with parent = !best })
    arr;
  Array.to_list arr

let roots nodes = List.filter (fun n -> n.parent = None) nodes
let children nodes cid = List.filter (fun n -> n.parent = Some cid) nodes
let find nodes cid = List.find_opt (fun n -> n.cid = cid) nodes
let chain_names nodes = List.map (fun n -> n.fname) nodes

let exclusive_latency nodes n =
  let child_sum =
    List.fold_left (fun acc c -> acc +. c.latency_us) 0. (children nodes n.cid)
  in
  Float.max 0. (n.latency_us -. child_sum)

let depth_of nodes n =
  let rec go depth cid =
    match find nodes cid with
    | Some { parent = Some p; _ } when depth < 256 -> go (depth + 1) p
    | _ -> depth
  in
  match n.parent with None -> 0 | Some p -> go 1 p
