(* Unit and property tests for the vsmt library: domains, expressions, the
   simplifier, intervals, the solver, and serialization. *)

module Dom = Vsmt.Dom
module E = Vsmt.Expr
module I = Vsmt.Interval
module Simplify = Vsmt.Simplify
module Solver = Vsmt.Solver

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let dom_gen =
  QCheck2.Gen.(
    oneof
      [
        return Dom.bool;
        (int_range (-50) 50 >>= fun lo ->
         int_range 0 100 >>= fun w -> return (Dom.int_range lo (lo + w)));
        return (Dom.enum "color" [ "red"; "green"; "blue" ]);
      ])

let var_pool =
  [
    E.{ name = "a"; dom = Dom.bool; origin = Config };
    E.{ name = "b"; dom = Dom.int_range 0 10; origin = Config };
    E.{ name = "c"; dom = Dom.int_range (-20) 20; origin = Workload };
    E.{ name = "d"; dom = Dom.enum "mode" [ "x"; "y"; "z" ]; origin = Config };
  ]

let expr_gen =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ (int_range (-30) 30 >>= fun v -> return (E.const v));
        (oneofl var_pool >>= fun v -> return (E.of_var v)) ]
  in
  let binop =
    oneofl
      E.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or ]
  in
  sized @@ fix (fun self n ->
      if n <= 1 then leaf
      else
        oneof
          [
            leaf;
            (binop >>= fun op ->
             self (n / 2) >>= fun a ->
             self (n / 2) >>= fun b -> return (E.binop op a b));
            (self (n - 1) >>= fun a -> return (E.not_ a));
            (self (n - 1) >>= fun a -> return (E.neg a));
            (self (n / 3) >>= fun c ->
             self (n / 3) >>= fun a ->
             self (n / 3) >>= fun b -> return (E.ite c a b));
          ])

let env_gen =
  QCheck2.Gen.(
    List.fold_left
      (fun acc (v : E.var) ->
        acc >>= fun env ->
        int_range (Dom.lo v.E.dom) (Dom.hi v.E.dom) >>= fun x ->
        return ((v.E.name, x) :: env))
      (return []) var_pool)

let lookup env (v : E.var) =
  match List.assoc_opt v.E.name env with Some x -> x | None -> Dom.lo v.E.dom

(* ------------------------------------------------------------------ *)
(* Dom                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dom_bounds () =
  check Alcotest.int "bool lo" 0 (Dom.lo Dom.bool);
  check Alcotest.int "bool hi" 1 (Dom.hi Dom.bool);
  check Alcotest.int "bool size" 2 (Dom.size Dom.bool);
  let d = Dom.int_range (-3) 7 in
  check Alcotest.int "range size" 11 (Dom.size d);
  check Alcotest.bool "mem lo" true (Dom.mem d (-3));
  check Alcotest.bool "mem hi" true (Dom.mem d 7);
  check Alcotest.bool "not mem" false (Dom.mem d 8);
  let e = Dom.enum "t" [ "p"; "q" ] in
  check Alcotest.int "enum size" 2 (Dom.size e)

let test_dom_invalid () =
  Alcotest.check_raises "empty range" (Invalid_argument "Dom.int_range: empty range")
    (fun () -> ignore (Dom.int_range 3 2));
  Alcotest.check_raises "empty enum" (Invalid_argument "Dom.enum: no members") (fun () ->
      ignore (Dom.enum "t" []))

let test_dom_strings () =
  check Alcotest.string "bool on" "ON" (Dom.value_to_string Dom.bool 1);
  check Alcotest.string "bool off" "OFF" (Dom.value_to_string Dom.bool 0);
  check (Alcotest.option Alcotest.int) "parse true" (Some 1)
    (Dom.value_of_string Dom.bool "true");
  check (Alcotest.option Alcotest.int) "parse off" (Some 0)
    (Dom.value_of_string Dom.bool "OFF");
  let e = Dom.enum "t" [ "ROW"; "STATEMENT" ] in
  check Alcotest.string "enum name" "STATEMENT" (Dom.value_to_string e 1);
  check (Alcotest.option Alcotest.int) "enum parse ci" (Some 0)
    (Dom.value_of_string e "row");
  check (Alcotest.option Alcotest.int) "enum by index" (Some 1) (Dom.value_of_string e "1");
  check (Alcotest.option Alcotest.int) "int reject oob" None
    (Dom.value_of_string (Dom.int_range 0 5) "9")

let prop_dom_roundtrip =
  QCheck2.Test.make ~name:"dom value string roundtrip" ~count:200
    QCheck2.Gen.(dom_gen >>= fun d -> int_range (Dom.lo d) (Dom.hi d) >>= fun v -> return (d, v))
    (fun (d, v) -> Dom.value_of_string d (Dom.value_to_string d v) = Some v)

(* ------------------------------------------------------------------ *)
(* Expr                                                                *)
(* ------------------------------------------------------------------ *)

let test_eval_basics () =
  let env _ = 0 in
  check Alcotest.int "const" 42 (E.eval env (E.const 42));
  check Alcotest.int "div0" 0 (E.eval env E.(const 5 /. const 0));
  check Alcotest.int "mod0" 0 (E.eval env E.(const 5 %. const 0));
  check Alcotest.int "cmp true" 1 (E.eval env E.(const 3 <. const 4));
  check Alcotest.int "cmp false" 0 (E.eval env E.(const 4 <. const 4));
  check Alcotest.int "and truthy" 1 (E.eval env E.(const 7 &&. const (-2)));
  check Alcotest.int "not nonzero" 0 (E.eval env (E.not_ (E.const 3)));
  check Alcotest.int "ite" 9 (E.eval env (E.ite (E.const 1) (E.const 9) (E.const 8)))

let test_vars_dedup () =
  let v = List.hd var_pool in
  let e = E.(of_var v +. (of_var v *. of_var v)) in
  check Alcotest.int "single var" 1 (List.length (E.vars e))

let test_subst () =
  let v = List.hd var_pool in
  let e = E.(of_var v +. const 1) in
  let e' = E.subst (fun w -> if w.E.name = "a" then Some (E.const 4) else None) e in
  check Alcotest.int "substituted" 5 (E.eval (fun _ -> 0) e')

let test_pp_friendly () =
  let ac = E.var "autocommit" Dom.bool in
  check Alcotest.string "friendly" "autocommit==ON" (Fmt.str "%a" E.pp_friendly E.(ac ==. const 1));
  check Alcotest.string "plain" "autocommit == 1" (E.to_string E.(ac ==. const 1))

let prop_short_circuit =
  QCheck2.Test.make ~name:"and/or results are 0/1" ~count:300
    QCheck2.Gen.(pair expr_gen env_gen)
    (fun (e, env) ->
      let v = E.eval (lookup env) E.(e ||. e) in
      let w = E.eval (lookup env) E.(e &&. e) in
      (v = 0 || v = 1) && (w = 0 || w = 1))

(* ------------------------------------------------------------------ *)
(* Simplify                                                            *)
(* ------------------------------------------------------------------ *)

let prop_simplify_sound =
  QCheck2.Test.make ~name:"simplify preserves evaluation" ~count:1000
    QCheck2.Gen.(pair expr_gen env_gen)
    (fun (e, env) ->
      E.eval (lookup env) e = E.eval (lookup env) (Simplify.simplify e))

let prop_simplify_idempotent =
  QCheck2.Test.make ~name:"simplify is idempotent" ~count:500 expr_gen (fun e ->
      let s = Simplify.simplify e in
      E.equal s (Simplify.simplify s))

let test_simplify_rules () =
  let b = List.nth var_pool 1 in
  let x = E.of_var b in
  let s e = Simplify.simplify e in
  check Alcotest.bool "x+0" true (E.equal x (s E.(x +. const 0)));
  check Alcotest.bool "x*1" true (E.equal x (s E.(x *. const 1)));
  check Alcotest.bool "x*0" true (E.equal (E.const 0) (s E.(x *. const 0)));
  check Alcotest.bool "x-x" true (E.equal (E.const 0) (s E.(x -. x)));
  check Alcotest.bool "x==x" true (E.equal (E.const 1) (s E.(x ==. x)));
  check Alcotest.bool "domain fold" true
    (* b in [0..10] so b < 11 is always true *)
    (E.equal (E.const 1) (s E.(x <. const 11)));
  check Alcotest.bool "domain fold false" true (E.equal (E.const 0) (s E.(x >. const 10)));
  check Alcotest.bool "double not of cmp" true
    (E.equal (s E.(x <. const 5)) (s (E.not_ (E.not_ E.(x <. const 5)))))

let test_simplify_conj () =
  let b = List.nth var_pool 1 in
  let x = E.of_var b in
  let cs = Simplify.simplify_conj E.[ x >. const 2; const 1; x >. const 2 ] in
  check Alcotest.int "dedup + drop true" 1 (List.length cs);
  let cs = Simplify.simplify_conj E.[ x >. const 2; const 0 ] in
  check Alcotest.bool "false wins" true (cs = [ E.fls ]);
  let cs = Simplify.simplify_conj E.[ (x >. const 2) &&. (x <. const 9) ] in
  check Alcotest.int "flatten and" 2 (List.length cs)

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)
(* ------------------------------------------------------------------ *)

let test_interval_basics () =
  let a = I.make 1 5 and b = I.make 3 9 in
  check Alcotest.bool "inter" true (I.inter a b = Some (I.make 3 5));
  check Alcotest.bool "disjoint" true (I.inter (I.make 0 1) (I.make 3 4) = None);
  check Alcotest.bool "hull" true (I.equal (I.hull a b) (I.make 1 9));
  check Alcotest.bool "add" true (I.equal (I.add a b) (I.make 4 14));
  check Alcotest.bool "sub" true (I.equal (I.sub a b) (I.make (-8) 2));
  check Alcotest.bool "neg" true (I.equal (I.neg a) (I.make (-5) (-1)));
  check Alcotest.bool "mul signs" true
    (I.equal (I.mul (I.make (-2) 3) (I.make (-4) 5)) (I.make (-12) 15))

let test_interval_eq_ne () =
  check Alcotest.bool "eq points" true (I.equal (I.eq_result (I.point 3) (I.point 3)) (I.point 1));
  check Alcotest.bool "eq disjoint" true
    (I.equal (I.eq_result (I.make 0 2) (I.make 5 9)) (I.point 0));
  check Alcotest.bool "eq overlap unknown" true
    (I.equal (I.eq_result (I.make 0 2) (I.make 1 1)) (I.make 0 1));
  check Alcotest.bool "ne points" true (I.equal (I.ne_result (I.point 3) (I.point 4)) (I.point 1))

let prop_interval_sound =
  (* interval of a op b contains x op y for x in a, y in b *)
  QCheck2.Test.make ~name:"interval arithmetic is sound" ~count:500
    QCheck2.Gen.(
      let bound = int_range (-40) 40 in
      tup4 bound (int_range 0 20) bound (int_range 0 20) >>= fun (alo, aw, blo, bw) ->
      int_range alo (alo + aw) >>= fun x ->
      int_range blo (blo + bw) >>= fun y ->
      oneofl [ `Add; `Sub; `Mul; `Div; `Rem ] >>= fun op ->
      return (alo, alo + aw, blo, blo + bw, x, y, op))
    (fun (alo, ahi, blo, bhi, x, y, op) ->
      let a = I.make alo ahi and b = I.make blo bhi in
      let iv, v =
        match op with
        | `Add -> I.add a b, x + y
        | `Sub -> I.sub a b, x - y
        | `Mul -> I.mul a b, x * y
        | `Div -> I.div a b, if y = 0 then 0 else x / y
        | `Rem -> I.rem a b, if y = 0 then 0 else x mod y
      in
      I.mem v iv)

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

let is_sat = function Solver.Sat _ -> true | Solver.Unsat | Solver.Unknown -> false

let test_solver_simple () =
  let b = List.nth var_pool 1 in
  let x = E.of_var b in
  check Alcotest.bool "range sat" true (is_sat (Solver.check E.[ x >. const 3; x <. const 6 ]));
  check Alcotest.bool "range unsat" false
    (is_sat (Solver.check E.[ x >. const 6; x <. const 3 ]));
  check Alcotest.bool "domain unsat" false (is_sat (Solver.check E.[ x >. const 10 ]));
  check Alcotest.bool "eq chain" true
    (is_sat (Solver.check E.[ x ==. const 4; x +. const 1 ==. const 5 ]))

let test_solver_multi_var () =
  let a = E.of_var (List.hd var_pool) and b = E.of_var (List.nth var_pool 1) in
  check Alcotest.bool "linked sat" true
    (is_sat (Solver.check E.[ a ==. const 1; b >. const 4; (a ==. const 0) ||. (b <. const 8) ]));
  check Alcotest.bool "linked unsat" false
    (is_sat (Solver.check E.[ a ==. const 1; (a ==. const 0) ||. (b >. const 10) ]))

let test_solver_large_domain () =
  let buf = E.var "buf" (Dom.int_range 1024 (64 * 1024 * 1024)) in
  match Solver.check E.[ buf >. const 4096; buf *. const 2 <. const 65536 ] with
  | Solver.Sat m -> begin
    match Solver.model_value m "buf" with
    | Some v -> Alcotest.(check bool) "model in range" true (v > 4096 && v < 32768)
    | None -> Alcotest.fail "no value for buf"
  end
  | Solver.Unsat | Solver.Unknown -> Alcotest.fail "expected sat"

let test_solver_ne_shaving () =
  let a = E.var "flag" Dom.bool in
  check Alcotest.bool "bool pinned" true
    (is_sat (Solver.check E.[ a <>. const 0; a <>. const 2 ]));
  check Alcotest.bool "bool exhausted" false
    (is_sat (Solver.check E.[ a <>. const 0; a <>. const 1 ]))

let prop_solver_model_satisfies =
  QCheck2.Test.make ~name:"Sat models satisfy the constraints" ~count:400
    QCheck2.Gen.(list_size (int_range 1 4) expr_gen)
    (fun cs ->
      match Solver.check cs with
      | Solver.Sat m ->
        let vars = List.concat_map E.vars cs in
        let m = Solver.complete ~vars m in
        List.for_all
          (fun c -> match Solver.eval_in m c with Some v -> v <> 0 | None -> false)
          cs
      | Solver.Unsat | Solver.Unknown -> true)

let prop_solver_complete_for_satisfiable =
  (* generate an assignment first, then constraints it satisfies: the solver
     must never answer Unsat *)
  QCheck2.Test.make ~name:"solver finds planted solutions" ~count:400
    QCheck2.Gen.(
      env_gen >>= fun env ->
      list_size (int_range 1 4) expr_gen >>= fun es -> return (env, es))
    (fun (env, es) ->
      let cs =
        List.map
          (fun e ->
            if E.eval (lookup env) e <> 0 then e else E.not_ e)
          es
      in
      match Solver.check cs with
      | Solver.Sat _ | Solver.Unknown -> true
      | Solver.Unsat -> false)

let test_complete_defaults () =
  let vars = [ List.hd var_pool; List.nth var_pool 1 ] in
  let m = Solver.complete ~vars [ "a", 1 ] in
  check (Alcotest.option Alcotest.int) "kept" (Some 1) (Solver.model_value m "a");
  check (Alcotest.option Alcotest.int) "defaulted" (Some 0) (Solver.model_value m "b")

(* ------------------------------------------------------------------ *)
(* Sexp + Serial                                                       *)
(* ------------------------------------------------------------------ *)

let test_sexp_roundtrip () =
  let module S = Vsmt.Sexp in
  let s = S.list [ S.atom "hello world"; S.int 42; S.list [ S.atom "x\"y" ] ] in
  match S.of_string (S.to_string s) with
  | Ok s' -> check Alcotest.string "roundtrip" (S.to_string s) (S.to_string s')
  | Error e -> Alcotest.fail e

let test_sexp_errors () =
  let module S = Vsmt.Sexp in
  check Alcotest.bool "unterminated" true (Result.is_error (S.of_string "(a b"));
  check Alcotest.bool "trailing" true (Result.is_error (S.of_string "(a) b"));
  check Alcotest.bool "comments ok" true (Result.is_ok (S.of_string "; hi\n(a)"))

(* The printer and reader as they were before the printer rendered
   through one buffer and the reader stopped boxing each character: the
   reference the current ones must match byte for byte and error for
   error. *)
module Old_sexp = struct
  open Vsmt.Sexp

  let needs_quoting s =
    s = ""
    || String.exists
         (fun c -> c = ' ' || c = '(' || c = ')' || c = '"' || c = '\n' || c = '\t')
         s

  let quote s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

  let rec to_string = function
    | Atom s -> if needs_quoting s then quote s else s
    | List l -> "(" ^ String.concat " " (List.map to_string l) ^ ")"

  exception Parse_error of string

  let of_string input =
    let n = String.length input in
    let pos = ref 0 in
    let peek () = if !pos < n then Some input.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\n' | '\t' | '\r') ->
        advance ();
        skip_ws ()
      | Some ';' ->
        while peek () <> None && peek () <> Some '\n' do advance () done;
        skip_ws ()
      | _ -> ()
    in
    let parse_quoted () =
      advance ();
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> raise (Parse_error "unterminated string")
        | Some '"' -> advance ()
        | Some '\\' -> begin
          advance ();
          match peek () with
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some c -> Buffer.add_char buf c; advance (); go ()
          | None -> raise (Parse_error "dangling escape")
        end
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Atom (Buffer.contents buf)
    in
    let parse_atom () =
      let start = !pos in
      let rec go () =
        match peek () with
        | Some (' ' | '\n' | '\t' | '\r' | '(' | ')' | '"') | None -> ()
        | Some _ ->
          advance ();
          go ()
      in
      go ();
      if !pos = start then raise (Parse_error "empty atom");
      Atom (String.sub input start (!pos - start))
    in
    let rec parse_one () =
      skip_ws ();
      match peek () with
      | None -> raise (Parse_error "unexpected end of input")
      | Some '(' ->
        advance ();
        let items = ref [] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ')' -> advance ()
          | None -> raise (Parse_error "unterminated list")
          | Some _ ->
            items := parse_one () :: !items;
            go ()
        in
        go ();
        List (List.rev !items)
      | Some '"' -> parse_quoted ()
      | Some ')' -> raise (Parse_error "unexpected )")
      | Some _ -> parse_atom ()
    in
    try
      let s = parse_one () in
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing input at %d" !pos) else Ok s
    with Parse_error msg -> Error msg
end

(* every byte the printer or reader treats specially, plus plain ones and
   a two-byte UTF-8 character *)
let sexp_char_gen =
  QCheck2.Gen.oneofl
    [ 'a'; 'n'; '0'; '-'; ' '; '('; ')'; '"'; '\\'; '\n'; '\t'; '\r'; ';'; '\xc3'; '\xa9' ]

let sexp_gen =
  let open QCheck2.Gen in
  let atom = string_size ~gen:sexp_char_gen (int_range 0 5) >|= Vsmt.Sexp.atom in
  sized @@ fix (fun self n ->
      if n <= 1 then atom
      else
        frequency
          [ (1, atom); (2, list_size (int_range 0 4) (self (n / 3)) >|= Vsmt.Sexp.list) ])

let sexp_print = Vsmt.Sexp.to_string

(* Where the bytes differ, the old printer wrote text that did not read
   back as the tree: an atom holding a carriage return or starting with a
   comment character, which the printer now quotes. *)
let prop_sexp_printer_matches_old =
  QCheck2.Test.make ~name:"sexp printer writes the old bytes" ~count:1000 ~print:sexp_print
    sexp_gen (fun s ->
      let old = Old_sexp.to_string s in
      String.equal (Vsmt.Sexp.to_string s) old || Vsmt.Sexp.of_string old <> Ok s)

let prop_sexp_text_roundtrip =
  QCheck2.Test.make ~name:"sexp survives text" ~count:1000 ~print:sexp_print sexp_gen
    (fun s -> Vsmt.Sexp.of_string (Vsmt.Sexp.to_string s) = Ok s)

let prop_sexp_reader_matches_old =
  QCheck2.Test.make ~name:"sexp reader accepts and rejects as before" ~count:2000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      oneof
        [
          string_size ~gen:sexp_char_gen (int_range 0 24);
          (sexp_gen >|= fun s -> Old_sexp.to_string s);
        ])
    (fun text -> Vsmt.Sexp.of_string text = Old_sexp.of_string text)

let test_sexp_quotes_reader_specials () =
  let module S = Vsmt.Sexp in
  List.iter
    (fun a ->
      check Alcotest.bool (Printf.sprintf "%S round-trips" a) true
        (S.of_string (S.to_string (S.list [ S.atom "x"; S.atom a ])) = Ok (S.list [ S.atom "x"; S.atom a ])))
    [ "a\rb"; ";c"; "\r" ];
  check Alcotest.string "plain atoms stay bare" "(x a;b \\n)"
    (S.to_string (S.list [ S.atom "x"; S.atom "a;b"; S.atom "\\n" ]))

let prop_serial_roundtrip =
  QCheck2.Test.make ~name:"expr serialization roundtrips" ~count:400 expr_gen (fun e ->
      match Vsmt.Serial.expr_of_sexp (Vsmt.Serial.expr_to_sexp e) with
      | Ok e' -> E.equal e e'
      | Error _ -> false)

let prop_serial_via_text =
  QCheck2.Test.make ~name:"expr serialization survives text" ~count:200 expr_gen (fun e ->
      let text = Vsmt.Sexp.to_string (Vsmt.Serial.expr_to_sexp e) in
      match Vsmt.Sexp.of_string text with
      | Ok s -> ( match Vsmt.Serial.expr_of_sexp s with Ok e' -> E.equal e e' | Error _ -> false)
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                        *)
(* ------------------------------------------------------------------ *)

let hvar = List.nth var_pool 1 (* "b", int 0..10 *)

let test_hashcons_physical_equality () =
  let e1 = E.(binop Add (of_var hvar) (const 3)) in
  let e2 = E.(binop Add (of_var hvar) (const 3)) in
  check Alcotest.bool "separately built equal exprs share one node" true (e1 == e2);
  check Alcotest.int "and therefore one id" (E.id e1) (E.id e2);
  let e3 = E.(binop Add (of_var hvar) (const 4)) in
  check Alcotest.bool "distinct exprs get distinct ids" true (E.id e1 <> E.id e3);
  check Alcotest.bool "structural compare still orders them" true
    (E.compare e1 e3 <> 0)

let rec rebuild e =
  match E.view e with
  | E.Const v -> E.const v
  | E.Var v -> E.of_var v
  | E.Not a -> E.not_ (rebuild a)
  | E.Neg a -> E.neg (rebuild a)
  | E.Binop (op, a, b) -> E.binop op (rebuild a) (rebuild b)
  | E.Ite (c, a, b) -> E.ite (rebuild c) (rebuild a) (rebuild b)

let prop_hashcons_canonical =
  QCheck2.Test.make ~name:"rebuilding any expr via view yields the same node"
    ~count:300 expr_gen (fun e -> rebuild e == e)

let test_hashcons_rehash () =
  (* Marshal duplicates the structure, bypassing the intern table; [rehash]
     must bring the copy back to the canonical live node (the snapshot-load
     path in the executor depends on this) *)
  let e = E.(ite (binop Lt (of_var hvar) (const 7)) (const 1) (neg (of_var hvar))) in
  let copied : E.t = Marshal.from_string (Marshal.to_string e []) 0 in
  check Alcotest.bool "marshalling breaks sharing" true (copied != e);
  check Alcotest.bool "rehash re-interns to the live node" true (E.rehash copied == e)

(* ------------------------------------------------------------------ *)
(* Iset.split                                                          *)
(* ------------------------------------------------------------------ *)

let test_iset_split () =
  let x = E.{ name = "x"; dom = Dom.int_range 0 10; origin = Config } in
  let x_wide = E.{ name = "x"; dom = Dom.int_range 0 100; origin = Config } in
  let y = E.{ name = "y"; dom = Dom.bool; origin = Workload } in
  let big = E.{ name = "big"; dom = Dom.int_range 0 1_000_000; origin = Workload } in
  let y_on = E.(of_var y ==. const 1) in
  let x_gt = E.(of_var x >. const 2) and x_lt = E.(of_var x <. const 8) in
  let x_ne = E.(of_var x <>. const 5) in
  let wide = E.(of_var x_wide >. const 50) in
  (* nonlinear on a domain too wide to enumerate: no truth set *)
  let square = E.(of_var big *. of_var big >. const 5) in
  let mixed = E.(of_var x +. of_var y ==. const 3) in
  let singles, rest =
    Vsmt.Iset.split [ y_on; x_gt; square; wide; mixed; x_lt; E.tru; x_ne ]
  in
  let ids = List.map E.id in
  check
    Alcotest.(list (pair string string))
    "one entry per (name, domain), first seen first"
    [ ("y", "bool"); ("x", "int[0..10]"); ("x", "int[0..100]") ]
    (List.map (fun ((v : E.var), _, _) -> (v.E.name, Fmt.to_to_string Dom.pp v.E.dom)) singles);
  let set_of n = match List.nth singles n with _, s, _ -> s in
  let conjuncts_of n = match List.nth singles n with _, _, cs -> ids cs in
  let iset = Alcotest.testable Vsmt.Iset.pp Vsmt.Iset.equal in
  check iset "x's sets intersect"
    (Vsmt.Iset.of_intervals [ I.make 3 4; I.make 6 7 ])
    (set_of 1);
  check Alcotest.(list int) "x's conjuncts in order" (ids [ x_gt; x_lt; x_ne ]) (conjuncts_of 1);
  check iset "y's set" (Vsmt.Iset.of_intervals [ I.make 1 1 ]) (set_of 0);
  check iset "the wide x has its own set" (Vsmt.Iset.of_intervals [ I.make 51 100 ]) (set_of 2);
  check Alcotest.(list int) "the wide x's conjunct" (ids [ wide ]) (conjuncts_of 2);
  check Alcotest.(list int) "unclosable, multi-variable and variable-free go to the rest, in order"
    (ids [ square; mixed; E.tru ]) (ids rest);
  check Alcotest.bool "nothing to split" true (Vsmt.Iset.split [] = ([], []))

let qt = QCheck_alcotest.to_alcotest

let tests =
  [
    tc "dom bounds" test_dom_bounds;
    tc "dom invalid" test_dom_invalid;
    tc "dom strings" test_dom_strings;
    qt prop_dom_roundtrip;
    tc "eval basics" test_eval_basics;
    tc "vars dedup" test_vars_dedup;
    tc "subst" test_subst;
    tc "pp friendly" test_pp_friendly;
    qt prop_short_circuit;
    qt prop_simplify_sound;
    qt prop_simplify_idempotent;
    tc "simplify rules" test_simplify_rules;
    tc "simplify conj" test_simplify_conj;
    tc "interval basics" test_interval_basics;
    tc "interval eq/ne" test_interval_eq_ne;
    qt prop_interval_sound;
    tc "solver simple" test_solver_simple;
    tc "solver multi var" test_solver_multi_var;
    tc "solver large domain" test_solver_large_domain;
    tc "solver ne shaving" test_solver_ne_shaving;
    qt prop_solver_model_satisfies;
    qt prop_solver_complete_for_satisfiable;
    tc "complete defaults" test_complete_defaults;
    tc "sexp roundtrip" test_sexp_roundtrip;
    tc "sexp errors" test_sexp_errors;
    qt prop_sexp_printer_matches_old;
    qt prop_sexp_text_roundtrip;
    qt prop_sexp_reader_matches_old;
    tc "sexp quotes reader specials" test_sexp_quotes_reader_specials;
    qt prop_serial_roundtrip;
    qt prop_serial_via_text;
    tc "hashcons physical equality" test_hashcons_physical_equality;
    qt prop_hashcons_canonical;
    tc "hashcons rehash after marshal" test_hashcons_rehash;
    tc "iset split: sets per variable and domain, then the rest" test_iset_split;
  ]
