module Ast = Vir.Ast

type view = { depth : int; pending : Vir.Ast.expr list }

type t =
  | Dfs
  | Bfs
  | Random_path of int
  | Coverage_guided
  | Config_impact of { related : string list }

let name = function
  | Dfs -> "dfs"
  | Bfs -> "bfs"
  | Random_path _ -> "random"
  | Coverage_guided -> "coverage"
  | Config_impact _ -> "config-impact"

let to_string = function
  | Random_path seed -> Printf.sprintf "random:%d" seed
  | p -> name p

let of_string s =
  match String.split_on_char ':' (String.trim (String.lowercase_ascii s)) with
  | [ "dfs" ] -> Ok Dfs
  | [ "bfs" ] -> Ok Bfs
  | [ "random" ] -> Ok (Random_path 0)
  | [ "random"; seed ] -> begin
    match int_of_string_opt seed with
    | Some seed -> Ok (Random_path seed)
    | None -> Error (Printf.sprintf "invalid searcher seed %S" s)
  end
  | [ "coverage" ] -> Ok Coverage_guided
  | [ "config-impact" ] -> Ok (Config_impact { related = [] })
  | _ ->
    Error
      (Printf.sprintf
         "unknown searcher %S (expected dfs, bfs, random[:SEED], coverage or config-impact)" s)

let run_to_completion = function
  | Dfs -> true
  | Bfs | Random_path _ | Coverage_guided | Config_impact _ -> false

(* ------------------------------------------------------------------ *)
(* Live frontiers                                                      *)
(* ------------------------------------------------------------------ *)

(* The three classic frontiers replicate the executor's historical queue
   behaviour exactly:
   - Dfs kept a stack (fork children pushed at the front, picks at the front);
     preempted states went to the back, though Dfs never preempts in practice;
   - Bfs appended at the back and picked from the back;
   - Random_path appended at the back and removed a uniformly random index,
     with the rng seeded [| seed; 77 |] as before. *)

(* A checkpointable image of a frontier: the queued states in internal
   order, the selection rng (Random_path only) and the covered branch set
   (Coverage_guided only).  Restoring a dump into a fresh frontier of the
   same policy reproduces the selection sequence exactly — the property the
   resume path relies on. *)
type 'a dump = {
  d_states : 'a list;
  d_rng : Random.State.t option;
  d_covered : Ast.expr list;
}

type 'a impl = {
  i_add : preempted:bool -> 'a -> unit;
  i_select : unit -> 'a option;
  i_length : unit -> int;
  i_mark_covered : Ast.expr -> unit;
  i_dump : unit -> 'a dump;
  i_restore : 'a dump -> unit;
  i_drop : keep:int -> 'a list;
}

type 'a frontier = { policy : t; impl : 'a impl }

let no_coverage _ = ()

(* first [keep] elements kept, the rest returned as dropped *)
let split_keep keep l =
  let rec go i acc = function
    | rest when i >= keep -> List.rev acc, rest
    | [] -> List.rev acc, []
    | x :: rest -> go (i + 1) (x :: acc) rest
  in
  go 0 [] l

let dfs_impl () =
  let q = ref [] in
  {
    i_add = (fun ~preempted st -> if preempted then q := !q @ [ st ] else q := st :: !q);
    i_select =
      (fun () ->
        match !q with
        | [] -> None
        | st :: rest ->
          q := rest;
          Some st);
    i_length = (fun () -> List.length !q);
    i_mark_covered = no_coverage;
    i_dump = (fun () -> { d_states = !q; d_rng = None; d_covered = [] });
    i_restore = (fun d -> q := d.d_states);
    i_drop =
      (fun ~keep ->
        (* picks come from the front, so the back of the stack is the
           lowest-priority end *)
        let kept, dropped = split_keep keep !q in
        q := kept;
        dropped);
  }

let take_last states =
  let rec go acc = function
    | [] -> assert false
    | [ x ] -> x, List.rev acc
    | x :: rest -> go (x :: acc) rest
  in
  go [] states

let bfs_impl () =
  let q = ref [] in
  {
    i_add = (fun ~preempted:_ st -> q := !q @ [ st ]);
    i_select =
      (fun () ->
        match !q with
        | [] -> None
        | states ->
          let st, rest = take_last states in
          q := rest;
          Some st);
    i_length = (fun () -> List.length !q);
    i_mark_covered = no_coverage;
    i_dump = (fun () -> { d_states = !q; d_rng = None; d_covered = [] });
    i_restore = (fun d -> q := d.d_states);
    i_drop =
      (fun ~keep ->
        (* picks come from the back, so the front of the queue is the
           lowest-priority end *)
        let n = List.length !q in
        let dropped, kept = split_keep (max 0 (n - keep)) !q in
        q := kept;
        dropped);
  }

let random_impl seed =
  let rng = ref (Random.State.make [| seed; 77 |]) in
  let q = ref [] in
  {
    i_add = (fun ~preempted:_ st -> q := !q @ [ st ]);
    i_select =
      (fun () ->
        match !q with
        | [] -> None
        | states ->
          let k = Random.State.int !rng (List.length states) in
          let st = List.nth states k in
          q := List.filteri (fun i _ -> i <> k) states;
          Some st);
    i_length = (fun () -> List.length !q);
    i_mark_covered = no_coverage;
    i_dump =
      (fun () -> { d_states = !q; d_rng = Some (Random.State.copy !rng); d_covered = [] });
    i_restore =
      (fun d ->
        q := d.d_states;
        match d.d_rng with Some s -> rng := Random.State.copy s | None -> ());
    i_drop =
      (fun ~keep ->
        (* no priority order: drop the oldest states *)
        let n = List.length !q in
        let dropped, kept = split_keep (max 0 (n - keep)) !q in
        q := kept;
        dropped);
  }

(* Scored frontiers keep entries newest first and select the entry with the
   highest score; on ties the newest entry wins, which keeps the search
   depth-leaning and deterministic.  Scores are cached per entry and
   invalidated by epoch when the scoring context (coverage) changes, so a
   select is a cheap scan even over deep frontiers. *)
type ('a, 'v) entry = { st : 'a; v : 'v; mutable s : float; mutable at : int }

let scored_impl ~view ~score ~mark ?(dump_cov = fun () -> []) ?(restore_cov = fun _ -> ()) ()
    =
  let epoch = ref 0 in
  let invalidate () = incr epoch in
  let entries = ref [] in
  let rescore e =
    if e.at <> !epoch then begin
      e.s <- score e.v;
      e.at <- !epoch
    end;
    e.s
  in
  {
    i_add =
      (fun ~preempted:_ st ->
        let v = view st in
        entries := { st; v; s = score v; at = !epoch } :: !entries);
    i_select =
      (fun () ->
        match !entries with
        | [] -> None
        | first :: rest ->
          let best_i = ref 0 and best_s = ref (rescore first) in
          List.iteri
            (fun i e ->
              let s = rescore e in
              if s > !best_s then begin
                best_i := i + 1;
                best_s := s
              end)
            rest;
          let e = List.nth !entries !best_i in
          entries := List.filteri (fun i _ -> i <> !best_i) !entries;
          Some e.st);
    i_length = (fun () -> List.length !entries);
    i_mark_covered = (fun cond -> mark ~invalidate cond);
    i_dump =
      (fun () ->
        {
          d_states = List.map (fun e -> e.st) !entries;
          d_rng = None;
          d_covered = dump_cov ();
        });
    i_restore =
      (fun d ->
        restore_cov d.d_covered;
        invalidate ();
        (* rebuild in dump order so newest-first tie-breaking is preserved *)
        entries := List.map (fun st -> let v = view st in { st; v; s = score v; at = !epoch }) d.d_states);
    i_drop =
      (fun ~keep ->
        (* keep the [keep] best-scored entries; on ties, list position
           (newest first) wins, mirroring selection order *)
        let scored = List.mapi (fun i e -> rescore e, i, e) !entries in
        let ranked =
          List.stable_sort
            (fun (sa, ia, _) (sb, ib, _) ->
              if sa <> sb then Float.compare sb sa else Int.compare ia ib)
            scored
        in
        let keep_idx =
          ranked |> List.filteri (fun i _ -> i < keep) |> List.map (fun (_, i, _) -> i)
        in
        let dropped =
          List.filteri (fun i _ -> not (List.mem i keep_idx)) !entries
          |> List.map (fun e -> e.st)
        in
        entries := List.filteri (fun i _ -> List.mem i keep_idx) !entries;
        dropped);
  }

(* Positional discount: a pending branch [i] conditions away contributes
   [w / (i + 1)], so states *closest* to an interesting branch rank first. *)
let positional_score weight pending =
  let s = ref 0. in
  List.iteri
    (fun i cond ->
      let w = weight cond in
      if w > 0. then s := !s +. (w /. float_of_int (i + 1)))
    pending;
  !s

let coverage_impl ~view () =
  let covered : (Ast.expr, unit) Hashtbl.t = Hashtbl.create 64 in
  let weight cond =
    if Ast.config_reads cond <> [] && not (Hashtbl.mem covered cond) then 1. else 0.
  in
  scored_impl ~view
    ~score:(fun v -> positional_score weight v.pending)
    ~mark:(fun ~invalidate cond ->
      if Ast.config_reads cond <> [] && not (Hashtbl.mem covered cond) then begin
        Hashtbl.replace covered cond ();
        invalidate ()
      end)
    ~dump_cov:(fun () -> Hashtbl.fold (fun cond () acc -> cond :: acc) covered [])
    ~restore_cov:(fun conds ->
      Hashtbl.reset covered;
      List.iter (fun c -> Hashtbl.replace covered c ()) conds)
    ()

let config_impact_impl ~view ~related () =
  let interesting =
    match related with
    | [] -> fun _ -> true
    | rs -> fun p -> List.mem p rs
  in
  let weight cond =
    float_of_int (List.length (List.filter interesting (Ast.config_reads cond)))
  in
  scored_impl ~view
    ~score:(fun v -> positional_score weight v.pending)
    ~mark:(fun ~invalidate:_ _ -> ())
    ()

let frontier ~view policy =
  let impl =
    match policy with
    | Dfs -> dfs_impl ()
    | Bfs -> bfs_impl ()
    | Random_path seed -> random_impl seed
    | Coverage_guided -> coverage_impl ~view ()
    | Config_impact { related } -> config_impact_impl ~view ~related ()
  in
  { policy; impl }

let add f ~preempted st = f.impl.i_add ~preempted st
let select f = f.impl.i_select ()
let length f = f.impl.i_length ()
let mark_covered f cond = f.impl.i_mark_covered cond
let frontier_name f = name f.policy
let dump f = f.impl.i_dump ()
let restore f d = f.impl.i_restore d
let drop_weakest f ~keep = f.impl.i_drop ~keep
