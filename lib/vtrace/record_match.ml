module Sig = Vsymexec.Signals

type entry = { call : Sig.record; ret : Sig.record option; latency_us : float option }

let match_thread records =
  (* [pending] holds unmatched call records, most recent first *)
  let pending = ref [] and matched = ref [] in
  List.iter
    (fun (r : Sig.record) ->
      match r.Sig.kind with
      | Sig.Call _ -> pending := r :: !pending
      | Sig.Ret { ret_addr } -> begin
        let rec take acc = function
          | [] -> None
          | (c : Sig.record) :: rest -> begin
            match c.Sig.kind with
            | Sig.Call { ret_addr = ra; _ } when ra = ret_addr ->
              Some (c, List.rev_append acc rest)
            | Sig.Call _ | Sig.Ret _ -> take (c :: acc) rest
          end
        in
        match take [] !pending with
        | Some (c, rest) ->
          pending := rest;
          matched :=
            { call = c; ret = Some r; latency_us = Some (r.Sig.ts -. c.Sig.ts) } :: !matched
        | None -> ()  (* spurious return: dropped, like the paper's tracer *)
      end)
    records;
  let unmatched = List.map (fun c -> { call = c; ret = None; latency_us = None }) !pending in
  !matched @ unmatched

let match_records records =
  let by_thread = Hashtbl.create 4 in
  List.iter
    (fun (r : Sig.record) ->
      let cur = match Hashtbl.find_opt by_thread r.Sig.thread with Some l -> l | None -> [] in
      Hashtbl.replace by_thread r.Sig.thread (r :: cur))
    records;
  let entries =
    Hashtbl.fold
      (fun _thread recs acc -> match_thread (List.rev recs) @ acc)
      by_thread []
  in
  List.sort (fun a b -> Int.compare a.call.Sig.cid b.call.Sig.cid) entries
