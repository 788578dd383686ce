type t = Buffer.t

let create () = Buffer.create 256

(* a text longer than this leaves the buffer at its initial size *)
let keep = 1 lsl 20

let render buf f =
  Buffer.clear buf;
  f buf;
  let text = Buffer.contents buf in
  if Buffer.length buf > keep then Buffer.reset buf;
  text
