(* Statistics and the result line of the benchmark: order statistics
   with the tail-support rule, and a small JSON value with floats (the
   repository's Jsonc is integer-only by design) that both prints the
   result line and reads it back. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Perfstats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The least sample: a run's best repetition, the figure a host that
   switches between speeds disturbs least. *)
let least = function
  | [] -> invalid_arg "Perfstats.least: no samples"
  | x :: xs -> List.fold_left Float.min x xs

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (its default "exclusive" method), so the spread the benchmark
   reports about itself is the one an outside check computes. *)
let quartiles xs =
  let a = sorted_array xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Perfstats.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  (q3 -. q1) /. abs_float q2

(* [tail p xs] is the nearest-rank [p]-th percentile of [xs], or [None]
   when fewer than ten samples lie beyond its rank: a tail figure that
   rests on fewer samples is one outlier's value and is not named. *)
let tail p xs =
  let a = sorted_array xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
  if n = 0 || n - rank < 10 then None else Some a.(rank - 1)

(* ------------------------------------------------------------------ *)
(* JSON with floats. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integral values print without a fraction, everything else with 17
   significant digits, which reads back to the identical float. *)
let num_to_string f =
  if not (Float.is_finite f) then invalid_arg "Perfstats.to_string: non-finite number"
  else if Float.is_integer f && abs_float f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> num_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kv)
    ^ "}"

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at offset %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\n' | '\t' | '\r' ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal w v =
    let k = String.length w in
    if !pos + k <= n && String.sub s !pos k = w then begin
      pos := !pos + k;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then ()
      else if c <> '\\' then (Buffer.add_char b c; go ())
      else begin
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 'u' when !pos + 5 <= n ->
          Buffer.add_char b
            (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 1) 4) land 0xff));
          pos := !pos + 4
        | ('"' | '\\' | '/') as e -> Buffer.add_char b e
        | _ -> fail "bad escape");
        incr pos;
        go ()
      end
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let rec scan () =
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' ->
        incr pos;
        scan ()
      | _ -> ()
    in
    scan ();
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when !pos > start -> f
    | _ -> fail "bad number"
  in
  let rec value () =
    ws ();
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> Str (string ())
    | '[' -> List (sequence ']' value)
    | '{' ->
      Obj
        (sequence '}' (fun () ->
             ws ();
             let k = string () in
             ws ();
             expect ':';
             (k, value ())))
    | _ -> Num (number ())
  and sequence : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    incr pos;
    ws ();
    if peek () = close then (incr pos; [])
    else
      let rec go acc =
        let v = item () in
        ws ();
        match peek () with
        | ',' ->
          incr pos;
          go (v :: acc)
        | c when c = close ->
          incr pos;
          List.rev (v :: acc)
        | _ -> fail "expected a separator"
      in
      go []
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing input";
  v

(* ------------------------------------------------------------------ *)
(* The result line. *)

type metric = { name : string; value : float; unit_ : string }

type summary = { correct : bool; attempted : int; failed : int; metrics : metric list }

(* A non-finite value cannot be printed as JSON and means a measurement
   went wrong, so it makes the result incorrect rather than being
   replaced silently. *)
let summary_to_json s =
  let finite = List.for_all (fun m -> Float.is_finite m.value) s.metrics in
  Obj
    [
      ("correct", Bool (s.correct && finite));
      ("attempted", Num (float_of_int s.attempted));
      ("failed", Num (float_of_int s.failed));
      ( "metrics",
        Obj
          (List.map
             (fun m ->
               ( m.name,
                 Obj
                   [
                     ("value", Num (if Float.is_finite m.value then m.value else 0.));
                     ("unit", Str m.unit_);
                   ] ))
             s.metrics) );
    ]

let summary_of_json j =
  let member k = function
    | Obj kv -> (
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> raise (Parse_error ("missing key " ^ k)))
    | _ -> raise (Parse_error ("not an object at key " ^ k))
  in
  let num = function Num f -> f | _ -> raise (Parse_error "expected a number") in
  let int v =
    let f = num v in
    if Float.is_integer f then int_of_float f else raise (Parse_error "expected an integer")
  in
  let metric (name, m) =
    match member "unit" m with
    | Str unit_ -> { name; value = num (member "value" m); unit_ }
    | _ -> raise (Parse_error "expected a unit string")
  in
  {
    correct = (match member "correct" j with Bool b -> b | _ -> raise (Parse_error "correct"));
    attempted = int (member "attempted" j);
    failed = int (member "failed" j);
    metrics =
      (match member "metrics" j with
      | Obj kv -> List.map metric kv
      | _ -> raise (Parse_error "metrics"));
  }
