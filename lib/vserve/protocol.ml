module W = Wire
module Row = Vmodel.Cost_row
module Checker = Vchecker.Checker
module TC = Vchecker.Test_case

type request =
  | Check_current of { key : string; config : string }
  | Check_update of { key : string; old_config : string; new_config : string }
  | Check_upgrade of {
      key : string;
      workloads : ((string * int) list * (string * int) list) option;
    }
  | Health
  | Stats
  | Reload_stage
  | Reload_commit
  | Shutdown

type outcome = {
  findings : Checker.finding list;
  checked_in_s : float;
  generation : int;
  batched : bool;
  coalesced : bool;
  degraded : bool;
}

type model_info = { mi_key : string; mi_generation : int; mi_digest : string }

type error_code =
  | Overloaded
  | Bad_request
  | Unknown_model
  | Check_failed
  | Shutting_down

type response =
  | Report of outcome
  | Health_info of { status : string; models : model_info list }
  | Stats_info of W.t
  | Reload_info of { phase : string; ok : bool; entries : (string * string) list }
      (** two-phase hot reload: [phase] is ["stage"] or ["commit"]; [entries]
          pairs each key with its staged digest / committed generation, or
          with the rejection reason when [ok] is false *)
  | Error_resp of { code : error_code; message : string }
  | Bye

let ( let* ) = Result.bind

let verb_of_request = function
  | Check_current _ -> "check-current"
  | Check_update _ -> "check-update"
  | Check_upgrade _ -> "check-upgrade"
  | Health -> "health"
  | Stats -> "stats"
  | Reload_stage -> "reload-stage"
  | Reload_commit -> "reload-commit"
  | Shutdown -> "shutdown"

let key_of_request = function
  | Check_current { key; _ } | Check_update { key; _ } | Check_upgrade { key; _ } -> Some key
  | Health | Stats | Reload_stage | Reload_commit | Shutdown -> None

let error_code_to_string = function
  | Overloaded -> "overloaded"
  | Bad_request -> "bad-request"
  | Unknown_model -> "unknown-model"
  | Check_failed -> "check-failed"
  | Shutting_down -> "shutting-down"

let error_code_of_string = function
  | "overloaded" -> Some Overloaded
  | "bad-request" -> Some Bad_request
  | "unknown-model" -> Some Unknown_model
  | "check-failed" -> Some Check_failed
  | "shutting-down" -> Some Shutting_down
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Field helpers                                                       *)
(* ------------------------------------------------------------------ *)

let field name conv v what =
  match Option.bind (W.member name v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s: missing or ill-typed field %S" what name)

let str_field name v what = field name W.to_str v what
let int_field name v what = field name W.to_int v what
let float_field name v what = field name W.to_float v what
let bool_field name v what = field name W.to_bool v what
let list_field name v what = field name W.to_list v what

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

(* ------------------------------------------------------------------ *)
(* Workload assignments: {"name":value,...}, order preserved            *)
(* ------------------------------------------------------------------ *)

let assignment_to_wire kvs = W.Obj (List.map (fun (k, v) -> (k, W.Int v)) kvs)

let assignment_of_wire v =
  match v with
  | W.Obj fields ->
    map_result
      (fun (k, v) ->
        match W.to_int v with
        | Some i -> Ok (k, i)
        | None -> Error (Printf.sprintf "workload value of %S is not an integer" k))
      fields
  | _ -> Error "workload assignment is not an object"

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

(* Each constraint's wire text, rendered once per hash-consed node: the text
   is a function of the node, and a response repeats a model's few distinct
   constraints in every row.  Bounded; reset rather than evicted when full. *)
let expr_text : (int, W.t) Hashtbl.t = Hashtbl.create 256

let expr_to_wire e =
  let id = Vsmt.Expr.id e in
  match Hashtbl.find_opt expr_text id with
  | Some text -> text
  | None ->
    let text = W.String (Vsmt.Sexp.to_string (Vsmt.Serial.expr_to_sexp e)) in
    if Hashtbl.length expr_text >= 4_096 then Hashtbl.reset expr_text;
    Hashtbl.replace expr_text id text;
    text

(* The decoder's mirror: each distinct constraint text is parsed once.
   Decoding goes through the smart constructors, so a text always decodes
   to the same interned node.  Only decoded expressions are kept, so a bad
   text reports its error every time.  Bounded like [expr_text]. *)
let text_expr : (string, Vsmt.Expr.t) Hashtbl.t = Hashtbl.create 256

let expr_of_wire v =
  match W.to_str v with
  | None -> Error "constraint is not a string"
  | Some s -> (
    match Hashtbl.find_opt text_expr s with
    | Some e -> Ok e
    | None ->
      let* sexp = Vsmt.Sexp.of_string s in
      let* e = Vsmt.Serial.expr_of_sexp sexp in
      if Hashtbl.length text_expr >= 4_096 then Hashtbl.reset text_expr;
      Hashtbl.replace text_expr s e;
      Ok e)

let strings_to_wire ss = W.List (List.map (fun s -> W.String s) ss)

let strings_of_wire what v =
  match W.to_list v with
  | None -> Error (what ^ ": expected a list of strings")
  | Some vs ->
    map_result
      (fun v ->
        match W.to_str v with
        | Some s -> Ok s
        | None -> Error (what ^ ": expected a string"))
      vs

let cost_to_wire (c : Vruntime.Cost.t) =
  W.Obj
    [
      ("latency_us", W.Float c.Vruntime.Cost.latency_us);
      ("instructions", W.Int c.Vruntime.Cost.instructions);
      ("syscalls", W.Int c.Vruntime.Cost.syscalls);
      ("io_calls", W.Int c.Vruntime.Cost.io_calls);
      ("io_bytes", W.Int c.Vruntime.Cost.io_bytes);
      ("sync_ops", W.Int c.Vruntime.Cost.sync_ops);
      ("net_ops", W.Int c.Vruntime.Cost.net_ops);
      ("allocations", W.Int c.Vruntime.Cost.allocations);
      ("cache_ops", W.Int c.Vruntime.Cost.cache_ops);
    ]

let cost_of_wire v =
  let* latency_us = float_field "latency_us" v "cost" in
  let* instructions = int_field "instructions" v "cost" in
  let* syscalls = int_field "syscalls" v "cost" in
  let* io_calls = int_field "io_calls" v "cost" in
  let* io_bytes = int_field "io_bytes" v "cost" in
  let* sync_ops = int_field "sync_ops" v "cost" in
  let* net_ops = int_field "net_ops" v "cost" in
  let* allocations = int_field "allocations" v "cost" in
  let* cache_ops = int_field "cache_ops" v "cost" in
  Ok
    {
      Vruntime.Cost.latency_us;
      instructions;
      syscalls;
      io_calls;
      io_bytes;
      sync_ops;
      net_ops;
      allocations;
      cache_ops;
    }

(* call-tree [nodes] are not serialized, exactly as impact-model persistence
   drops them; they decode back as [] *)
let row_to_wire (r : Row.t) =
  W.Obj
    [
      ("state_id", W.Int r.Row.state_id);
      ("config", W.List (List.map expr_to_wire r.Row.config_constraints));
      ("workload", W.List (List.map expr_to_wire r.Row.workload_pred));
      ("cost", cost_to_wire r.Row.cost);
      ("traced_latency_us", W.Float r.Row.traced_latency_us);
      ("chain", strings_to_wire r.Row.chain);
      ("critical_ops", strings_to_wire r.Row.critical_ops);
    ]

let row_of_wire v =
  let* state_id = int_field "state_id" v "row" in
  let* config = list_field "config" v "row" in
  let* config_constraints = map_result expr_of_wire config in
  let* workload = list_field "workload" v "row" in
  let* workload_pred = map_result expr_of_wire workload in
  let* cost_v = field "cost" Option.some v "row" in
  let* cost = cost_of_wire cost_v in
  let* traced_latency_us = float_field "traced_latency_us" v "row" in
  let* chain_v = field "chain" Option.some v "row" in
  let* chain = strings_of_wire "chain" chain_v in
  let* ops_v = field "critical_ops" Option.some v "row" in
  let* critical_ops = strings_of_wire "critical_ops" ops_v in
  Ok
    {
      Row.state_id;
      config_constraints;
      workload_pred;
      cost;
      traced_latency_us;
      chain;
      nodes = [];
      critical_ops;
    }

let test_case_to_wire (tc : TC.t) =
  W.Obj
    [
      ("workload", assignment_to_wire tc.TC.workload);
      ("description", W.String tc.TC.description);
    ]

let test_case_of_wire v =
  let* wl = field "workload" Option.some v "test_case" in
  let* workload = assignment_of_wire wl in
  let* description = str_field "description" v "test_case" in
  Ok { TC.workload; description }

let opt_to_wire f = function None -> W.Null | Some x -> f x

let opt_of_wire f = function
  | W.Null -> Ok None
  | v ->
    let* x = f v in
    Ok (Some x)

let finding_to_wire (f : Checker.finding) =
  W.Obj
    [
      ("param", W.String f.Checker.param);
      ("message", W.String f.Checker.message);
      ("slow_row", row_to_wire f.Checker.slow_row);
      ("fast_row", opt_to_wire row_to_wire f.Checker.fast_row);
      ("ratio", W.Float f.Checker.ratio);
      ("trigger", W.String f.Checker.trigger);
      ("critical_path", strings_to_wire f.Checker.critical_path);
      ("test_case", opt_to_wire test_case_to_wire f.Checker.test_case);
    ]

let finding_of_wire v =
  let* param = str_field "param" v "finding" in
  let* message = str_field "message" v "finding" in
  let* slow_v = field "slow_row" Option.some v "finding" in
  let* slow_row = row_of_wire slow_v in
  let* fast_v = field "fast_row" Option.some v "finding" in
  let* fast_row = opt_of_wire row_of_wire fast_v in
  let* ratio = float_field "ratio" v "finding" in
  let* trigger = str_field "trigger" v "finding" in
  let* cp_v = field "critical_path" Option.some v "finding" in
  let* critical_path = strings_of_wire "critical_path" cp_v in
  let* tc_v = field "test_case" Option.some v "finding" in
  let* test_case = opt_of_wire test_case_of_wire tc_v in
  Ok
    {
      Checker.param;
      message;
      slow_row;
      fast_row;
      ratio;
      trigger;
      critical_path;
      test_case;
    }

let findings_to_wire fs = W.List (List.map finding_to_wire fs)

let findings_of_wire v =
  match W.to_list v with
  | None -> Error "findings: expected a list"
  | Some vs -> map_result finding_of_wire vs

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let with_id id fields =
  match id with None -> fields | Some id -> ("id", W.Int id) :: fields

let request_to_wire ?id req =
  let verb = ("verb", W.String (verb_of_request req)) in
  let fields =
    match req with
    | Check_current { key; config } ->
      [ verb; ("key", W.String key); ("config", W.String config) ]
    | Check_update { key; old_config; new_config } ->
      [
        verb;
        ("key", W.String key);
        ("old", W.String old_config);
        ("new", W.String new_config);
      ]
    | Check_upgrade { key; workloads = None } -> [ verb; ("key", W.String key) ]
    | Check_upgrade { key; workloads = Some (old_w, new_w) } ->
      [
        verb;
        ("key", W.String key);
        ("old_workload", assignment_to_wire old_w);
        ("new_workload", assignment_to_wire new_w);
      ]
    | Health | Stats | Reload_stage | Reload_commit | Shutdown -> [ verb ]
  in
  W.Obj (with_id id fields)

let encode_request ?id req = W.to_string (request_to_wire ?id req)
let request_line ?id req = W.to_line (request_to_wire ?id req)

let request_of_wire v =
  let id = Option.bind (W.member "id" v) W.to_int in
  let* verb = str_field "verb" v "request" in
  let* req =
    match verb with
    | "check-current" ->
      let* key = str_field "key" v verb in
      let* config = str_field "config" v verb in
      Ok (Check_current { key; config })
    | "check-update" ->
      let* key = str_field "key" v verb in
      let* old_config = str_field "old" v verb in
      let* new_config = str_field "new" v verb in
      Ok (Check_update { key; old_config; new_config })
    | "check-upgrade" ->
      let* key = str_field "key" v verb in
      let* workloads =
        match (W.member "old_workload" v, W.member "new_workload" v) with
        | None, None -> Ok None
        | Some o, Some n ->
          let* old_w = assignment_of_wire o in
          let* new_w = assignment_of_wire n in
          Ok (Some (old_w, new_w))
        | _ -> Error "check-upgrade: old_workload and new_workload must come together"
      in
      Ok (Check_upgrade { key; workloads })
    | "health" -> Ok Health
    | "stats" -> Ok Stats
    | "reload-stage" -> Ok Reload_stage
    | "reload-commit" -> Ok Reload_commit
    | "shutdown" -> Ok Shutdown
    | v -> Error (Printf.sprintf "unknown verb %S" v)
  in
  Ok (id, req)

let decode_request line =
  let* v = W.of_string line in
  request_of_wire v

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let response_to_wire ?id resp =
  let fields =
    match resp with
    | Report o ->
      [
        ( "ok",
          W.Obj
            [
              ("findings", findings_to_wire o.findings);
              ("generation", W.Int o.generation);
              ("batched", W.Bool o.batched);
              ("coalesced", W.Bool o.coalesced);
              ("degraded", W.Bool o.degraded);
              ("checked_in_s", W.Float o.checked_in_s);
            ] );
      ]
    | Health_info { status; models } ->
      [
        ( "health",
          W.Obj
            [
              ("status", W.String status);
              ( "models",
                W.List
                  (List.map
                     (fun m ->
                       W.Obj
                         [
                           ("key", W.String m.mi_key);
                           ("generation", W.Int m.mi_generation);
                           ("digest", W.String m.mi_digest);
                         ])
                     models) );
            ] );
      ]
    | Stats_info stats -> [ ("stats", stats) ]
    | Reload_info { phase; ok; entries } ->
      [
        ( "reload",
          W.Obj
            [
              ("phase", W.String phase);
              ("ok", W.Bool ok);
              ("entries", W.Obj (List.map (fun (k, v) -> (k, W.String v)) entries));
            ] );
      ]
    | Error_resp { code; message } ->
      [
        ( "error",
          W.Obj
            [
              ("code", W.String (error_code_to_string code));
              ("message", W.String message);
            ] );
      ]
    | Bye -> [ ("bye", W.Bool true) ]
  in
  W.Obj (with_id id fields)

let encode_response ?id resp = W.to_string (response_to_wire ?id resp)

let response_of_wire v =
  let id = Option.bind (W.member "id" v) W.to_int in
  let* resp =
    match
      ( W.member "ok" v,
        W.member "health" v,
        (W.member "stats" v, W.member "reload" v),
        W.member "error" v,
        W.member "bye" v )
    with
    | Some o, None, (None, None), None, None ->
      let* findings_v = field "findings" Option.some o "ok" in
      let* findings = findings_of_wire findings_v in
      let* generation = int_field "generation" o "ok" in
      let* batched = bool_field "batched" o "ok" in
      let* coalesced = bool_field "coalesced" o "ok" in
      let* degraded = bool_field "degraded" o "ok" in
      let* checked_in_s = float_field "checked_in_s" o "ok" in
      Ok (Report { findings; checked_in_s; generation; batched; coalesced; degraded })
    | None, Some h, (None, None), None, None ->
      let* status = str_field "status" h "health" in
      let* models_v = list_field "models" h "health" in
      let* models =
        map_result
          (fun m ->
            let* mi_key = str_field "key" m "model" in
            let* mi_generation = int_field "generation" m "model" in
            let* mi_digest = str_field "digest" m "model" in
            Ok { mi_key; mi_generation; mi_digest })
          models_v
      in
      Ok (Health_info { status; models })
    | None, None, (Some stats, None), None, None -> Ok (Stats_info stats)
    | None, None, (None, Some r), None, None ->
      let* phase = str_field "phase" r "reload" in
      let* ok = bool_field "ok" r "reload" in
      let* entries_v = field "entries" Option.some r "reload" in
      let* entries =
        match entries_v with
        | W.Obj fields ->
          map_result
            (fun (k, v) ->
              match W.to_str v with
              | Some s -> Ok (k, s)
              | None -> Error (Printf.sprintf "reload entry %S is not a string" k))
            fields
        | _ -> Error "reload entries is not an object"
      in
      Ok (Reload_info { phase; ok; entries })
    | None, None, (None, None), Some e, None ->
      let* code_s = str_field "code" e "error" in
      let* message = str_field "message" e "error" in
      (match error_code_of_string code_s with
      | Some code -> Ok (Error_resp { code; message })
      | None -> Error (Printf.sprintf "unknown error code %S" code_s))
    | None, None, (None, None), None, Some _ -> Ok Bye
    | _ -> Error "response must carry exactly one of ok/health/stats/reload/error/bye"
  in
  Ok (id, resp)

let decode_response line =
  let* v = W.of_string line in
  response_of_wire v
