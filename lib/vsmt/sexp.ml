type t = Atom of string | List of t list

let atom s = Atom s
let list l = List l
let int n = Atom (string_of_int n)
let float f = Atom (Printf.sprintf "%h" f)

(* an atom the reader would split, drop or take as a comment is quoted *)
let needs_quoting s =
  s = ""
  || s.[0] = ';'
  || String.exists
       (fun c -> c = ' ' || c = '(' || c = ')' || c = '"' || c = '\n' || c = '\t' || c = '\r')
       s

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* one buffer for the whole tree: each byte is copied once, not once per
   nesting level *)
let rec add buf = function
  | Atom s -> if needs_quoting s then add_quoted buf s else Buffer.add_string buf s
  | List l ->
    Buffer.add_char buf '(';
    List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ' '; add buf x) l;
    Buffer.add_char buf ')'

let to_string s =
  let buf = Buffer.create 256 in
  add buf s;
  Buffer.contents buf

exception Parse_error of string

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let rec skip_ws () =
    if !pos < n then
      match input.[!pos] with
      | ' ' | '\n' | '\t' | '\r' ->
        incr pos;
        skip_ws ()
      | ';' ->
        (* comment to end of line *)
        while !pos < n && input.[!pos] <> '\n' do incr pos done;
        skip_ws ()
      | _ -> ()
  in
  let parse_quoted () =
    incr pos;
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Parse_error "unterminated string");
      match input.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then raise (Parse_error "dangling escape");
        Buffer.add_char buf (match input.[!pos] with 'n' -> '\n' | c -> c);
        incr pos;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Atom (Buffer.contents buf)
  in
  let parse_atom () =
    let start = !pos in
    let ends = function ' ' | '\n' | '\t' | '\r' | '(' | ')' | '"' -> true | _ -> false in
    while !pos < n && not (ends input.[!pos]) do incr pos done;
    if !pos = start then raise (Parse_error "empty atom");
    Atom (String.sub input start (!pos - start))
  in
  let rec parse_one () =
    skip_ws ();
    if !pos >= n then raise (Parse_error "unexpected end of input");
    match input.[!pos] with
    | '(' ->
      incr pos;
      let items = ref [] in
      let rec go () =
        skip_ws ();
        if !pos >= n then raise (Parse_error "unterminated list");
        if input.[!pos] = ')' then incr pos
        else begin
          items := parse_one () :: !items;
          go ()
        end
      in
      go ();
      List (List.rev !items)
    | '"' -> parse_quoted ()
    | ')' -> raise (Parse_error "unexpected )")
    | _ -> parse_atom ()
  in
  try
    let s = parse_one () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at %d" !pos) else Ok s
  with Parse_error msg -> Error msg

let to_int = function Atom s -> int_of_string_opt s | List _ -> None
let to_float = function Atom s -> float_of_string_opt s | List _ -> None
let to_atom = function Atom s -> Some s | List _ -> None
