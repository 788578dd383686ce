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
  screened : int;
  solver_queries : int;
}

(* Smoothed relative difference (slow - fast) / max(fast, floor): values at
   or below the floor on both sides count as equal, and a zero denominator
   is floored instead of yielding infinity (a path with 1 write syscall
   versus 0 reports 200% with floor 0.5, like the paper's c17).  Inlined
   with the max written out, so that the pair screen boxes no float. *)
let[@inline] rel_diff ~floor slow fast =
  if slow <= floor && fast <= floor then 0.
  else (slow -. fast) /. if fast >= floor then fast else floor

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
   decided per workload class pair ([make_comparable]). *)
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

(* [a] ⊆ [b], both ascending *)
let subset (a : int array) (b : int array) =
  let rec go i j =
    i = Array.length a
    || j < Array.length b
       && if a.(i) = b.(j) then go (i + 1) (j + 1) else a.(i) > b.(j) && go i (j + 1)
  in
  go 0 0

let verdict_byte v = if v then '\002' else '\001'

(* A workload class as [comparable] decides it: its predicate list (for
   the solver), its expression ids ascending (the subset test), its
   variables sorted by name, each with the truth set of the class's
   single-variable conjuncts on it ({!Vsmt.Iset.of_expr}, exact over the
   domain; the whole domain when it has none), and the conjuncts those
   sets do not close.  [vars] is [None] when one name comes with two
   domains: then no point of the sets is one assignment. *)
type wclass = {
  pred : Vsmt.Expr.t list;
  foot : Vsmt.Footprint.t;
  ids : int array;
  vars : (Vsmt.Expr.var * Vsmt.Iset.t) array option;
  rest : Vsmt.Expr.t list;
}

let wclass_of pred =
  let ids = Array.of_list (constraint_key pred) in
  Array.sort Int.compare ids;
  let sets = Hashtbl.create 4 and rest = ref [] and clash = ref false in
  let note (v : Vsmt.Expr.var) s =
    match Hashtbl.find_opt sets v.name with
    | None -> Hashtbl.replace sets v.name (v, s)
    | Some ((u : Vsmt.Expr.var), t) ->
      if Vsmt.Dom.equal u.dom v.dom then Hashtbl.replace sets v.name (u, Vsmt.Iset.inter t s)
      else clash := true
  in
  List.iter
    (fun c ->
      let vs = Vsmt.Expr.vars c in
      match match vs with [ v ] -> Vsmt.Iset.of_expr ~var:v c | _ -> None with
      | Some s -> note (List.hd vs) s
      | None ->
        rest := c :: !rest;
        List.iter (fun (v : Vsmt.Expr.var) -> note v (Vsmt.Iset.of_dom v.dom)) vs)
    pred;
  let by_name ((a : Vsmt.Expr.var), _) ((b : Vsmt.Expr.var), _) = String.compare a.name b.name in
  let vars =
    if !clash then None
    else Some (Array.of_list (List.sort by_name (Hashtbl.fold (fun _ b acc -> b :: acc) sets [])))
  in
  { pred; foot = Vsmt.Footprint.of_list pred; ids; vars; rest = !rest }

(* The sets' verdict on a class pair: [Some false] when some variable's
   sets do not meet, [Some true] when every other conjunct holds at the
   point taking each variable's least common value, [None] (open)
   otherwise.  [names] and [values] hold the point; each is at least as
   long as the two classes' variables together. *)
let sets_verdict ~names ~values a b =
  match (a.vars, b.vars) with
  | None, _ | _, None -> None
  | Some va, Some vb ->
    let k = ref 0 and clash = ref false in
    let put (v : Vsmt.Expr.var) s t =
      match Vsmt.Iset.min_inter s t with
      | None -> false
      | Some x ->
        names.(!k) <- v.name;
        values.(!k) <- x;
        incr k;
        true
    in
    let rec merge i j =
      if i = Array.length va && j = Array.length vb then true
      else
        let c =
          if i = Array.length va then 1
          else if j = Array.length vb then -1
          else String.compare (fst va.(i)).name (fst vb.(j)).name
        in
        if c < 0 then put (fst va.(i)) (snd va.(i)) (snd va.(i)) && merge (i + 1) j
        else if c > 0 then put (fst vb.(j)) (snd vb.(j)) (snd vb.(j)) && merge i (j + 1)
        else
          let (u, s), (v, t) = (va.(i), vb.(j)) in
          (if Vsmt.Dom.equal u.dom v.dom then put u s t else (clash := true; true))
          && merge (i + 1) (j + 1)
    in
    if not (merge 0 0) then Some false
    else if !clash then None
    else
      let rec find name m = if String.equal names.(m) name then values.(m) else find name (m + 1) in
      let holds c = Vsmt.Expr.eval (fun (v : Vsmt.Expr.var) -> find v.name 0) c <> 0 in
      if List.for_all holds a.rest && List.for_all holds b.rest then Some true else None

(* [comparable i j] over row indices [i < j] in different config classes
   (condition 1 is the ranking's filter): whether their states' workloads
   are jointly satisfiable.  [wkey.(i)] and [preds.(i)] are the workload
   key and predicate of row [i]'s state (its last row), and each class
   takes its first row's, so a verdict is a function of the two workload
   classes: a byte per unordered class pair holds it, filled by the first
   query.  That query takes the subset test, then the truth sets, then the
   solver, through per-class verdicts (a byte per class) when the two
   footprints are disjoint under [slice].  A verdict byte reads 0 not yet
   asked, 1 unsat, 2 sat.  [solved] counts the solver queries. *)
let make_comparable ~max_nodes ~slice ~solved ~wkey preds =
  let wcls = classes wkey in
  let nw = Array.fold_left max (-1) wcls + 1 in
  let first = Array.make nw (-1) in
  Array.iteri (fun i x -> if first.(x) < 0 then first.(x) <- i) wcls;
  let cl = Array.map (fun i -> wclass_of preds.(i)) first in
  let width =
    Array.fold_left (fun m c -> max m (Option.fold ~none:0 ~some:Array.length c.vars)) 0 cl
  in
  let names = Array.make (2 * width) "" and values = Array.make (2 * width) 0 in
  let solve pred =
    incr solved;
    Vsmt.Solver.is_feasible ~max_nodes pred
  in
  let sides = Bytes.make nw '\000' in
  let side_sat x =
    match Bytes.get sides x with
    | '\000' ->
      let v = solve cl.(x).pred in
      Bytes.set sides x (verdict_byte v);
      v
    | c -> c = '\002'
  in
  let joint_sat x y =
    let a = cl.(x) and b = cl.(y) in
    (* one predicate subsuming the other is trivially jointly sat *)
    subset a.ids b.ids || subset b.ids a.ids
    ||
    match sets_verdict ~names ~values a b with
    | Some v -> v
    | None ->
      (* symbol-disjoint predicates constrain different input variables:
         the conjunction is satisfiable iff each side is, and the per-side
         verdicts are shared across every pairing of that input class *)
      if slice && not (Vsmt.Footprint.overlaps a.foot b.foot) then
        side_sat x && side_sat y
      else solve (a.pred @ b.pred)
  in
  let verdicts = Bytes.make (nw * (nw + 1) / 2) '\000' in
  fun i j ->
    let x = wcls.(i) and y = wcls.(j) in
    let k = if x > y then (x * (x + 1) / 2) + y else (y * (y + 1) / 2) + x in
    match Bytes.get verdicts k with
    | '\000' ->
      let v = joint_sat x y in
      Bytes.set verdicts k (verdict_byte v);
      v
    | c -> c = '\002'

(* The full metric comparison for an (a, b) pair: latency decides the slow
   side; logical metrics count in either direction.  Builds the kept
   pairs; the screen reads the same rule from [metric_vector]. *)
let pair_triggers ~threshold a b =
  let slow, fast =
    if a.Cost_row.traced_latency_us >= b.Cost_row.traced_latency_us then a, b else b, a
  in
  Option.map
    (fun (worst, triggers) -> (slow, fast, worst, triggers))
    (metrics ~undirected:true ~threshold ~slow ~fast)

(* Each row's traced latency and then its logical metrics, [stride]
   floats a row in one unboxed array. *)
let stride = 1 + List.length Vruntime.Cost.logical_metrics
let floors =
  Array.of_list (List.map (fun (name, _) -> logical_floor name) Vruntime.Cost.logical_metrics)

let metric_vector arr =
  let v = Array.make (Array.length arr * stride) 0. in
  Array.iteri
    (fun r (row : Cost_row.t) ->
      v.(r * stride) <- row.traced_latency_us;
      List.iteri
        (fun m (_, get) -> v.((r * stride) + 1 + m) <- get row.cost)
        Vruntime.Cost.logical_metrics)
    arr;
  v

(* whether [pair_triggers] triggers on rows [i] and [j] of [v]: latency
   measured from the slower row, each logical metric from its larger side.
   The reads go unchecked: both rows are in [v], and [floors] has a slot
   per logical metric. *)
let screen ~threshold (v : float array) i j =
  let a = i * stride and b = j * stride in
  let la = Array.unsafe_get v a and lb = Array.unsafe_get v b in
  let hit =
    ref
      ((if la >= lb then rel_diff ~floor:latency_floor_us la lb
        else rel_diff ~floor:latency_floor_us lb la)
      > threshold)
  in
  let m = ref 1 in
  while (not !hit) && !m < stride do
    let x = Array.unsafe_get v (a + !m) and y = Array.unsafe_get v (b + !m) in
    let floor = Array.unsafe_get floors (!m - 1) in
    hit := (if x >= y then rel_diff ~floor x y else rel_diff ~floor y x) > threshold;
    incr m
  done;
  !hit

let rec bits x = if x <= 0 then 0 else 1 + bits (x lsr 1)

(* in-place binary min-heap over [h.(0) .. h.(len - 1)]: move [h.(p)] down *)
let rec sift (h : int array) len p =
  let c = (2 * p) + 1 in
  if c < len then begin
    let c = if c + 1 < len && h.(c + 1) < h.(c) then c + 1 else c in
    if h.(c) < h.(p) then begin
      let x = h.(p) in
      h.(p) <- h.(c);
      h.(c) <- x;
      sift h len c
    end
  end

let analyze ?(threshold = 1.0) ?(max_nodes = joint_sat_max_nodes) ?jobs:_ ?(slice = true) rows =
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
  let solved = ref 0 and screened = ref 0 in
  let comparable =
    make_comparable ~max_nodes ~slice ~solved
      ~wkey:(key_of (fun r -> r.Cost_row.workload_pred))
      (Array.map (fun r -> arr.(r).Cost_row.workload_pred) reps)
  in
  (* a candidate (i, j), i < j, is one int ordered like (similarity desc,
     i asc, j asc): the order the analyzer reads pairs in *)
  let ib = bits (n - 1) in
  let mask = (1 lsl ib) - 1 in
  let max_sim =
    Array.fold_left
      (fun m (r : Cost_row.t) ->
        max m (List.length r.config_constraints + List.length r.workload_pred))
      0 arr
  in
  if (2 * ib) + bits max_sim > 61 then invalid_arg "Diff_analysis.analyze: too many rows";
  (* the footprint screen is part of slicing: its footprints are per state
     (the last row's), so under a repeated id it can zero a count that the
     rows' own lists, counted in full without slicing, would give *)
  let shared = if slice then Similarity.shared else fun _ _ -> Similarity.appearance_count in
  let v = metric_vector arr in
  (* one state at a time, since a verdict depends only on its class pair:
     its rows' candidates as the slow side ([pair_triggers]' rule) in
     other config classes (a same-class pair is never comparable) go to
     one reused buffer, a heap yields them in key order, and the state
     keeps its first 8 comparable ones, its 8 most similar witnesses *)
  let buf = ref (Array.make (max n 1) 0) and len = ref 0 in
  let chosen = ref [] in
  for st = 0 to n - 1 do
    if reps.(st) = st then begin
      len := 0;
      (* the state's rows: [st] and the rows before it with its id *)
      for s = 0 to st do
        if reps.(s) = st then begin
          let c = cls.(s) in
          (* [q], [i] and [j] are rows: the reads of [cls] and [v] go unchecked *)
          for q = 0 to n - 1 do
            let i = if q < s then q else s and j = if q < s then s else q in
            let slow =
              if Array.unsafe_get v (i * stride) >= Array.unsafe_get v (j * stride) then i else j
            in
            if Array.unsafe_get cls q <> c && slow = s then begin
              incr screened;
              if screen ~threshold v i j then begin
                let a = arr.(i) and b = arr.(j) in
                let sim =
                  shared cfoot.(i) cfoot.(j) a.config_constraints b.config_constraints
                  + shared wfoot.(i) wfoot.(j) a.workload_pred b.workload_pred
                in
                if !len = Array.length !buf then begin
                  let grown = Array.make (2 * !len) 0 in
                  Array.blit !buf 0 grown 0 !len;
                  buf := grown
                end;
                !buf.(!len) <- ((max_sim - sim) lsl (2 * ib)) lor (i lsl ib) lor j;
                incr len
              end
            end
          done
        end
      done;
      let h = !buf and kept = ref 0 in
      for p = (!len / 2) - 1 downto 0 do
        sift h !len p
      done;
      while !kept < 8 && !len > 0 do
        let k = h.(0) in
        decr len;
        h.(0) <- h.(!len);
        sift h !len 0;
        if comparable ((k lsr ib) land mask) (k land mask) then begin
          chosen := k :: !chosen;
          incr kept
        end
      done
    end
  done;
  let chosen = Array.of_list !chosen in
  Array.sort Int.compare chosen;
  let max_ratio = ref 0. in
  let pairs =
    Array.fold_right
      (fun k acc ->
        let i = (k lsr ib) land mask and j = k land mask in
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
        }
        :: acc)
      chosen []
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
  {
    threshold;
    pairs;
    poor_state_ids;
    max_ratio = !max_ratio;
    screened = !screened;
    solver_queries = !solved;
  }

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
