module Atom = Mirror_bat.Atom
module Types = Mirror_core.Types
module Value = Mirror_core.Value
module Parser = Mirror_core.Parser

type fab_cause = Mirror_daemon.Deadletter.cause =
  | Failed of string
  | Expired of string
  | Overflow

type fab_route = {
  daemon : string;
  seq : int;
  topic : string;
  subject : int;
  payload : (string * string) list;
  attempts : int;
}

type t =
  | Define of string * Types.t
  | Replace of string * Value.t list
  | Feedback of { query : string; judgements : (string * bool) list }
  | Store_op of { tag : string; payload : string }
  | Fab_route of fab_route
  | Fab_done of { daemon : string; seq : int }
  | Fab_dead of { daemon : string; seq : int; cause : fab_cause; at : float }
  | Fab_redeliver of { daemon : string; seq : int }
  | Fab_atomic of t list

(* {1 Writer}

   Tagged binary: one tag character per node, 64-bit little-endian
   integers, length-prefixed strings.  Floats are stored as their bit
   pattern — [Value] round-trips must be exact, textual rendering is
   not. *)

let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_atom buf = function
  | Atom.Int i ->
    Buffer.add_char buf 'i';
    add_int buf i
  | Atom.Flt f ->
    Buffer.add_char buf 'f';
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Atom.Str s ->
    Buffer.add_char buf 's';
    add_str buf s
  | Atom.Bool b ->
    Buffer.add_char buf 'b';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Atom.Oid o ->
    Buffer.add_char buf 'o';
    add_int buf o

let rec add_value buf = function
  | Value.Atom a -> add_atom buf a
  | Value.Tup fields ->
    Buffer.add_char buf 'T';
    add_int buf (List.length fields);
    List.iter
      (fun (label, v) ->
        add_str buf label;
        add_value buf v)
      fields
  | Value.VSet items ->
    Buffer.add_char buf 'S';
    add_int buf (List.length items);
    List.iter (add_value buf) items
  | Value.Xv { ext; meta; items } ->
    Buffer.add_char buf 'X';
    add_str buf ext;
    add_int buf (List.length meta);
    List.iter (add_str buf) meta;
    add_int buf (List.length items);
    List.iter (add_value buf) items

let rec encode r =
  let buf = Buffer.create 256 in
  (match r with
  | Define (name, ty) ->
    Buffer.add_char buf 'D';
    add_str buf name;
    add_str buf (Types.to_string ty)
  | Replace (name, rows) ->
    Buffer.add_char buf 'R';
    add_str buf name;
    add_int buf (List.length rows);
    List.iter (add_value buf) rows
  | Feedback { query; judgements } ->
    Buffer.add_char buf 'F';
    add_str buf query;
    add_int buf (List.length judgements);
    List.iter
      (fun (url, rel) ->
        add_str buf url;
        Buffer.add_char buf (if rel then '\001' else '\000'))
      judgements
  | Store_op { tag; payload } ->
    Buffer.add_char buf 'N';
    add_str buf tag;
    add_str buf payload
  | Fab_route { daemon; seq; topic; subject; payload; attempts } ->
    Buffer.add_char buf 'Q';
    add_str buf daemon;
    add_int buf seq;
    add_str buf topic;
    add_int buf subject;
    add_int buf (List.length payload);
    List.iter
      (fun (k, v) ->
        add_str buf k;
        add_str buf v)
      payload;
    add_int buf attempts
  | Fab_done { daemon; seq } ->
    Buffer.add_char buf 'H';
    add_str buf daemon;
    add_int buf seq
  | Fab_dead { daemon; seq; cause; at } ->
    Buffer.add_char buf 'L';
    add_str buf daemon;
    add_int buf seq;
    (match cause with
    | Failed msg ->
      Buffer.add_char buf 'f';
      add_str buf msg
    | Expired st ->
      Buffer.add_char buf 'e';
      add_str buf st
    | Overflow -> Buffer.add_char buf 'o');
    Buffer.add_int64_le buf (Int64.bits_of_float at)
  | Fab_redeliver { daemon; seq } ->
    Buffer.add_char buf 'B';
    add_str buf daemon;
    add_int buf seq
  | Fab_atomic rs ->
    (* Each constituent record travels length-prefixed in its own
       encoding, so the batch is one WAL frame: a crash can lose the
       whole group or none of it, never a prefix. *)
    Buffer.add_char buf 'A';
    add_int buf (List.length rs);
    List.iter (fun r -> add_str buf (encode r)) rs);
  Buffer.contents buf

(* {1 Reader} *)

exception Bad of string

type cursor = { src : string; mutable pos : int }

let need c n =
  if n < 0 || c.pos + n > String.length c.src then raise (Bad "truncated record")

let read_char c =
  need c 1;
  let ch = c.src.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let read_int c =
  need c 8;
  let v = Int64.to_int (String.get_int64_le c.src c.pos) in
  c.pos <- c.pos + 8;
  v

let read_str c =
  let n = read_int c in
  need c n;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

let read_count c =
  let n = read_int c in
  (* an element costs at least one byte, so this also bounds recursion *)
  need c n;
  n

let read_bool c =
  match read_char c with
  | '\000' -> false
  | '\001' -> true
  | ch -> raise (Bad (Printf.sprintf "bad boolean byte %C" ch))

(* strictly left-to-right (the cursor is stateful) *)
let read_list c n f =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f c :: acc) in
  go n []

let rec read_value c =
  match read_char c with
  | 'i' -> Value.Atom (Atom.Int (read_int c))
  | 'f' ->
    need c 8;
    let bits = String.get_int64_le c.src c.pos in
    c.pos <- c.pos + 8;
    Value.Atom (Atom.Flt (Int64.float_of_bits bits))
  | 's' -> Value.Atom (Atom.Str (read_str c))
  | 'b' -> Value.Atom (Atom.Bool (read_bool c))
  | 'o' -> Value.Atom (Atom.Oid (read_int c))
  | 'T' ->
    let n = read_count c in
    Value.Tup
      (read_list c n (fun c ->
           let label = read_str c in
           (label, read_value c)))
  | 'S' ->
    let n = read_count c in
    Value.VSet (read_list c n read_value)
  | 'X' ->
    let ext = read_str c in
    let meta = read_list c (read_count c) read_str in
    let items = read_list c (read_count c) read_value in
    Value.Xv { ext; meta; items }
  | ch -> raise (Bad (Printf.sprintf "unknown value tag %C" ch))

let rec decode payload =
  let c = { src = payload; pos = 0 } in
  let finish r =
    if c.pos <> String.length payload then Error "trailing bytes in record" else Ok r
  in
  match
    match read_char c with
    | 'D' ->
      let name = read_str c in
      let tys = read_str c in
      Result.map (fun ty -> Define (name, ty)) (Parser.parse_type tys)
    | 'R' ->
      let name = read_str c in
      let n = read_count c in
      Ok (Replace (name, read_list c n read_value))
    | 'F' ->
      let query = read_str c in
      let n = read_count c in
      let judgements =
        read_list c n (fun c ->
            let url = read_str c in
            (url, read_bool c))
      in
      Ok (Feedback { query; judgements })
    | 'N' ->
      let tag = read_str c in
      let payload = read_str c in
      Ok (Store_op { tag; payload })
    | 'Q' ->
      let daemon = read_str c in
      let seq = read_int c in
      let topic = read_str c in
      let subject = read_int c in
      let n = read_count c in
      let payload =
        read_list c n (fun c ->
            let k = read_str c in
            let v = read_str c in
            (k, v))
      in
      let attempts = read_int c in
      Ok (Fab_route { daemon; seq; topic; subject; payload; attempts })
    | 'H' ->
      let daemon = read_str c in
      let seq = read_int c in
      Ok (Fab_done { daemon; seq })
    | 'L' ->
      let daemon = read_str c in
      let seq = read_int c in
      let cause =
        match read_char c with
        | 'f' -> Failed (read_str c)
        | 'e' -> Expired (read_str c)
        | 'o' -> Overflow
        | ch -> raise (Bad (Printf.sprintf "unknown dead-letter cause %C" ch))
      in
      need c 8;
      let bits = String.get_int64_le c.src c.pos in
      c.pos <- c.pos + 8;
      Ok (Fab_dead { daemon; seq; cause; at = Int64.float_of_bits bits })
    | 'B' ->
      let daemon = read_str c in
      let seq = read_int c in
      Ok (Fab_redeliver { daemon; seq })
    | 'A' ->
      let n = read_count c in
      Ok
        (Fab_atomic
           (read_list c n (fun c ->
                match decode (read_str c) with
                | Ok r -> r
                | Error e -> raise (Bad ("in atomic batch: " ^ e)))))
    | ch -> Error (Printf.sprintf "unknown record tag %C" ch)
  with
  | Ok r -> finish r
  | Error _ as e -> e
  | exception Bad msg -> Error msg

let describe = function
  | Define (name, ty) -> Printf.sprintf "define %s as %s" name (Types.to_string ty)
  | Replace (name, rows) -> Printf.sprintf "replace %s (%d rows)" name (List.length rows)
  | Feedback { query; judgements } ->
    Printf.sprintf "feedback %S (%d judgements)" query (List.length judgements)
  | Store_op { tag; payload } ->
    Printf.sprintf "store-op %s (%d bytes)" tag (String.length payload)
  | Fab_route { daemon; seq; topic; _ } ->
    Printf.sprintf "fab-route #%d %s -> %s" seq topic daemon
  | Fab_done { daemon; seq } -> Printf.sprintf "fab-done #%d @ %s" seq daemon
  | Fab_dead { daemon; seq; cause; _ } ->
    let c =
      match cause with
      | Failed _ -> "failed"
      | Expired _ -> "expired"
      | Overflow -> "overflow"
    in
    Printf.sprintf "fab-dead #%d @ %s (%s)" seq daemon c
  | Fab_redeliver { daemon; seq } -> Printf.sprintf "fab-redeliver #%d @ %s" seq daemon
  | Fab_atomic rs -> Printf.sprintf "fab-atomic (%d records)" (List.length rs)
