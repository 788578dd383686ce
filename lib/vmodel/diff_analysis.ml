type trigger = Latency | Logical of string

type poor_pair = {
  slow : Cost_row.t;
  fast : Cost_row.t;
  similarity : int;
  latency_ratio : float;
  worst_ratio : float;
  triggers : trigger list;
  diff : Critical_path.diff;
}

type t = {
  threshold : float;
  pairs : poor_pair list;
  poor_state_ids : int list;
  max_ratio : float;
}

(* Smoothed relative difference (slow - fast) / max(fast, floor): values at
   or below the floor on both sides count as equal, and a zero denominator
   is floored instead of yielding infinity (a path with 1 write syscall
   versus 0 reports 200% with floor 0.5, like the paper's c17). *)
let rel_diff ~floor slow fast =
  if slow <= floor && fast <= floor then 0. else (slow -. fast) /. Float.max fast floor

let latency_floor_us = 1.0

(* byte-traffic differences below a sector are noise; counters use 0.5 so a
   1-vs-0 syscall difference still reads as 200% *)
let logical_floor = function "io_bytes" -> 512. | _ -> 0.5

(* Compare [slow] against [fast]: the worst finite relative difference and
   the metrics over the threshold.  [undirected] measures each logical
   metric from its larger side (the screen's rule: Section 4.6 marks the
   state even when only a logical metric exceeds, in either direction). *)
let metrics ~undirected ~threshold ~(slow : Cost_row.t) ~(fast : Cost_row.t) =
  let worst = ref 0. in
  let lat_diff =
    rel_diff ~floor:latency_floor_us slow.Cost_row.traced_latency_us
      fast.Cost_row.traced_latency_us
  in
  if Float.is_finite lat_diff && lat_diff > !worst then worst := lat_diff;
  let logical_triggers =
    List.filter_map
      (fun (name, get) ->
        let va = get slow.Cost_row.cost and vb = get fast.Cost_row.cost in
        let floor = logical_floor name in
        let d =
          if undirected then rel_diff ~floor (Float.max va vb) (Float.min va vb)
          else rel_diff ~floor va vb
        in
        if Float.is_finite d && d > !worst then worst := d;
        if d > threshold then Some (Logical name) else None)
      Vruntime.Cost.logical_metrics
  in
  let triggers = (if lat_diff > threshold then [ Latency ] else []) @ logical_triggers in
  if triggers = [] then None else Some (!worst, triggers)

let compare_pair = metrics ~undirected:false

(* A pair is only meaningful for specious-config detection when (1) the two
   states differ in their configuration constraints — otherwise the
   performance difference is input-driven, not config-driven — and (2) some
   single input class can trigger both states, i.e. the conjunction of the
   two input predicates is satisfiable.  Comparing an INSERT-only state
   against a SELECT-only state would not isolate the configuration effect. *)
(* Expressions are hash-consed, so a constraint set's identity is its sorted
   list of node ids — O(set size) to build, O(1) per element to compare —
   instead of the rendered text the pre-hashconsing code compared.  The
   structural sort makes the key independent of the order constraints were
   recorded in.  Rows with equal keys form a class, and workload classes
   repeat heavily across states, so joint-satisfiability verdicts are
   memoized per workload class and class pair ([make_comparable]). *)
let joint_sat_max_nodes = 1_000

let constraint_key cs = List.map Vsmt.Expr.id (List.sort_uniq Vsmt.Expr.compare cs)

(* [Hashtbl.hash] reads only the first ten elements of a list, and sorted id
   keys share their low ids, so the generic table chain-walks on them *)
module Key_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash k = Hashtbl.hash (List.fold_left (fun h id -> (h * 65_599) + id) 0 k)
end)

(* dense ints for the distinct keys, in first-seen order *)
let classes keys =
  let tbl = Key_tbl.create 64 in
  Array.map
    (fun k ->
      if not (Key_tbl.mem tbl k) then Key_tbl.add tbl k (Key_tbl.length tbl);
      Key_tbl.find tbl k)
    keys

(* The union of two ascending id arrays, read in place: its next id from
   positions [i] and [j] is the smaller of [id_at a i] and [id_at b j]
   ([max_int] once both are past their end), and [skip] moves each
   position past it. *)
let id_at a i = if i < Array.length a then a.(i) else max_int
let skip a i u = if id_at a i = u then i + 1 else i

let union_hash a b =
  let rec go h i j =
    let u = Int.min (id_at a i) (id_at b j) in
    if u = max_int then Hashtbl.hash h else go ((h * 65_599) + u) (skip a i u) (skip b j u)
  in
  go 0 0 0

let union_equal a b c d =
  let rec go i j k l =
    let u = Int.min (id_at a i) (id_at b j) in
    u = Int.min (id_at c k) (id_at d l)
    && (u = max_int || go (skip a i u) (skip b j u) (skip c k u) (skip d l u))
  in
  go 0 0 0 0

(* [a] ⊆ [b] exactly when [a] ∪ [b] = [b] *)
let subset a b = union_equal a b b [||]

let verdict_byte v = if v then '\002' else '\001'

(* [comparable i j] over row indices [i < j] in different config classes
   (condition 1 is the ranking's filter): whether their workloads are
   jointly satisfiable.  [wkey.(i)] and [wfoot.(i)] are the workload key
   and footprint of row [i]'s state.  Every memo goes by workload class
   (rows with equal [wkey], each held once as an ascending id array): a
   byte per class for the per-side verdicts, a byte per unordered class
   pair for the answer, and between them the union memo.  A verdict byte
   reads 0 not yet asked, 1 unsat, 2 sat. *)
let make_comparable ~max_nodes ~slice ~wfoot ~wkey (arr : Cost_row.t array) =
  let wcls = classes wkey in
  let nw = Array.fold_left max (-1) wcls + 1 in
  let first = Array.make nw (-1) in
  Array.iteri (fun i x -> if first.(x) < 0 then first.(x) <- i) wcls;
  let ids =
    Array.map
      (fun i ->
        let a = Array.of_list wkey.(i) in
        Array.sort Int.compare a;
        a)
      first
  in
  (* the union memo: a class pair [x * nw + y] stands for the union of the
     two classes' id sets, so pairs whose predicates conjoin to the same
     set share an entry; hash and equality merge the arrays in place *)
  let module Union_tbl = Hashtbl.Make (struct
    type t = int

    let equal p q = union_equal ids.(p / nw) ids.(p mod nw) ids.(q / nw) ids.(q mod nw)
    let hash p = union_hash ids.(p / nw) ids.(p mod nw)
  end) in
  let sat_cache = Union_tbl.create 256 in
  (* per-side verdicts for the disjoint-footprint fast path, a byte per
     workload class *)
  let sides = Bytes.make nw '\000' in
  let side_sat x pred =
    match Bytes.get sides x with
    | '\000' ->
      let v = Vsmt.Solver.is_feasible ~max_nodes pred in
      Bytes.set sides x (verdict_byte v);
      v
    | c -> c = '\002'
  in
  let joint_sat i j x y =
    let a = arr.(i) and b = arr.(j) in
    (* one predicate subsuming the other is trivially jointly sat *)
    subset ids.(x) ids.(y) || subset ids.(y) ids.(x)
    ||
    let key = (x * nw) + y in
    match Union_tbl.find_opt sat_cache key with
    | Some v -> v
    | None ->
      let v =
        (* symbol-disjoint predicates constrain different input variables:
           the conjunction is satisfiable iff each side is, and the
           per-side verdicts are shared across every pairing of that input
           class *)
        if slice && not (Vsmt.Footprint.overlaps wfoot.(i) wfoot.(j)) then
          side_sat x a.Cost_row.workload_pred && side_sat y b.Cost_row.workload_pred
        else
          Vsmt.Solver.is_feasible ~max_nodes (a.Cost_row.workload_pred @ b.Cost_row.workload_pred)
      in
      Union_tbl.add sat_cache key v;
      v
  in
  (* one verdict per unordered workload-class pair, a byte each in a
     triangle, in front of the rest: [joint_sat]'s subset test and union
     memo read only the two classes, so its first answer for a pair is what
     it would answer every later query *)
  let verdicts = Bytes.make (nw * (nw + 1) / 2) '\000' in
  fun i j ->
    let x = wcls.(i) and y = wcls.(j) in
    let k = if x > y then (x * (x + 1) / 2) + y else (y * (y + 1) / 2) + x in
    match Bytes.get verdicts k with
    | '\000' ->
      let v = joint_sat i j x y in
      Bytes.set verdicts k (verdict_byte v);
      v
    | c -> c = '\002'

(* The full metric comparison for an (a, b) pair: latency decides the slow
   side; logical metrics count in either direction.  Shared by the screen
   and the final pair construction. *)
let pair_triggers ~threshold a b =
  let slow, fast =
    if a.Cost_row.traced_latency_us >= b.Cost_row.traced_latency_us then a, b else b, a
  in
  Option.map
    (fun (worst, triggers) -> (slow, fast, worst, triggers))
    (metrics ~undirected:true ~threshold ~slow ~fast)

let rec bits x = if x <= 0 then 0 else 1 + bits (x lsr 1)

let analyze ?(threshold = 1.0) ?(max_nodes = joint_sat_max_nodes) ?(jobs = 1) ?(slice = true)
    rows =
  let arr = Array.of_list rows in
  let n = Array.length arr in
  (* the cap and every per-state key go by state id: a repeated id shares
     one count and takes its last row's keys *)
  let last = Hashtbl.create n in
  Array.iteri (fun i (r : Cost_row.t) -> Hashtbl.replace last r.state_id i) arr;
  let reps = Array.map (fun (r : Cost_row.t) -> Hashtbl.find last r.state_id) arr in
  let foot f = Array.map (fun r -> Vsmt.Footprint.of_list (f arr.(r))) reps in
  let cfoot = foot (fun r -> r.Cost_row.config_constraints) in
  let wfoot = foot (fun r -> r.Cost_row.workload_pred) in
  let key_of f = Array.map (fun r -> constraint_key (f arr.(r))) reps in
  let cls = classes (key_of (fun r -> r.Cost_row.config_constraints)) in
  let comparable =
    make_comparable ~max_nodes ~slice ~wfoot ~wkey:(key_of (fun r -> r.Cost_row.workload_pred)) arr
  in
  (* a candidate (i, j), i < j, is one int ordered like (similarity desc,
     i asc, j asc): the order the analyzer reads pairs in *)
  let ib = bits (n - 1) in
  let max_sim =
    Array.fold_left
      (fun m (r : Cost_row.t) ->
        max m (List.length r.config_constraints + List.length r.workload_pred))
      0 arr
  in
  if (2 * ib) + bits max_sim > 61 then invalid_arg "Diff_analysis.analyze: too many rows";
  let unpack k = ((k lsr ib) land ((1 lsl ib) - 1), k land ((1 lsl ib) - 1)) in
  (* the footprint screen is part of slicing: its footprints are per state
     (the last row's), so under a repeated id it can zero a count that the
     rows' own lists, counted in full without slicing, would give *)
  let shared = if slice then Similarity.shared else fun _ _ -> Similarity.appearance_count in
  (* row [r]'s candidates as the slow side ([pair_triggers]' rule) in other
     config classes (a same-class pair is never comparable), ranked; pure,
     so rows fan out over the worker pool *)
  let rank r =
    let hits = ref [] in
    for q = 0 to n - 1 do
      let i = min q r and j = max q r in
      let a = arr.(i) and b = arr.(j) in
      if
        cls.(q) <> cls.(r)
        && (if a.traced_latency_us >= b.traced_latency_us then i else j) = r
        && Option.is_some (pair_triggers ~threshold a b)
      then begin
        let sim =
          shared cfoot.(i) cfoot.(j) a.config_constraints b.config_constraints
          + shared wfoot.(i) wfoot.(j) a.workload_pred b.workload_pred
        in
        hits := ((max_sim - sim) lsl (2 * ib)) lor (i lsl ib) lor j :: !hits
      end
    done;
    let ranked = Array.of_list !hits in
    Array.sort Int.compare ranked;
    ranked
  in
  let ranked = Vpar.Pool.map_array ~jobs:(Vpar.Pool.clamp_jobs jobs) rank (Array.init n Fun.id) in
  (* walk the rows' lists merged in key order (a binary heap over their
     heads), skipping states that already hold their 8 most similar
     witnesses: [comparable] fills memos whose first query decides later
     verdicts, so it must see the pairs in this one global order *)
  let pos = Array.make n 0 and kept = Array.make n 0 in
  let head s = if pos.(s) < Array.length ranked.(s) then ranked.(s).(pos.(s)) else max_int in
  let heap = Array.init n Fun.id in
  let rec sift p =
    let c = (2 * p) + 1 in
    let c = if c + 1 < n && head heap.(c + 1) < head heap.(c) then c + 1 else c in
    if c < n && head heap.(c) < head heap.(p) then begin
      let s = heap.(p) in
      heap.(p) <- heap.(c);
      heap.(c) <- s;
      sift c
    end
  in
  for p = (n / 2) - 1 downto 0 do
    sift p
  done;
  let chosen = ref [] in
  while n > 0 && head heap.(0) < max_int do
    let s = heap.(0) in
    let k = head s and st = reps.(s) in
    let i, j = unpack k in
    if kept.(st) < 8 && comparable i j then begin
      chosen := k :: !chosen;
      kept.(st) <- kept.(st) + 1
    end;
    pos.(s) <- (if kept.(st) = 8 then Array.length ranked.(s) else pos.(s) + 1);
    sift 0
  done;
  let max_ratio = ref 0. in
  let pairs =
    List.rev_map
      (fun k ->
        let i, j = unpack k in
        let slow, fast, worst, triggers = Option.get (pair_triggers ~threshold arr.(i) arr.(j)) in
        let latency_ratio =
          if fast.Cost_row.traced_latency_us <= 0. then infinity
          else slow.Cost_row.traced_latency_us /. fast.Cost_row.traced_latency_us
        in
        {
          slow;
          fast;
          similarity = max_sim - (k lsr (2 * ib));
          latency_ratio;
          (* the headline ratio is the latency ratio when latency is what
             triggered; logical metrics otherwise *)
          worst_ratio =
            (if List.mem Latency triggers && Float.is_finite latency_ratio then
               latency_ratio
             else 1. +. worst);
          triggers;
          diff = Critical_path.differential ~slow ~fast;
        })
      !chosen
  in
  let poor_state_ids =
    List.sort_uniq Int.compare (List.map (fun p -> p.slow.Cost_row.state_id) pairs)
  in
  (* headline diff: the analyzer reads most-similar pairs first, so report
     the worst ratio among each poor state's most similar suspicious pair *)
  List.iter
    (fun id ->
      match List.find_opt (fun p -> p.slow.Cost_row.state_id = id) pairs with
      | Some p -> if p.worst_ratio > !max_ratio then max_ratio := p.worst_ratio
      | None -> ())
    poor_state_ids;
  { threshold; pairs; poor_state_ids; max_ratio = !max_ratio }

let trigger_label triggers =
  let has_latency = List.mem Latency triggers in
  let logicals =
    List.filter_map (function Logical n -> Some n | Latency -> None) triggers
  in
  let io = List.exists (fun n -> n = "io_calls" || n = "io_bytes" || n = "syscalls") logicals in
  let sync = List.mem "sync_ops" logicals in
  let net = List.mem "net_ops" logicals in
  let parts =
    (if has_latency then [ "Lat." ] else [])
    @ (if io then [ "I/O" ] else [])
    @ (if sync then [ "Sync." ] else [])
    @ (if net then [ "Net." ] else [])
    @
    if (not io) && (not sync) && not net then
      List.filter_map
        (fun n -> if n = "instructions" || n = "allocations" || n = "cache_ops" then Some "CPU" else None)
        logicals
      |> List.sort_uniq String.compare
    else []
  in
  match parts with
  | [] -> "-"
  | [ "Lat." ] -> "Latency"
  | parts -> String.concat "&" parts

let is_poor t state_id = List.mem state_id t.poor_state_ids
