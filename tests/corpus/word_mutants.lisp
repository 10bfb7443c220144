; Mutated word identities over two interleaved 8-bit words.  Each is
; false, so each is disproved.  The zeros and ones counterexamples are
; the lexicographically least and greatest failing inputs, with the
; bits read in index order (x0 y0 x1 y1 ...), in both modes.

(def-gl-thm xor-as-or
  :hyp (and (unsigned-byte-p 8 x) (unsigned-byte-p 8 y))
  :concl (equal (logxor x y) (logior x y))
  :g-bindings `((x ,(g-int 0 2 9)) (y ,(g-int 1 2 9))))

(def-gl-thm sum-as-or
  :hyp (and (unsigned-byte-p 8 x) (unsigned-byte-p 8 y))
  :concl (equal (+ x y) (logior x y))
  :g-bindings `((x ,(g-int 0 2 9)) (y ,(g-int 1 2 9))))

(def-gl-thm difference-commutes
  :hyp (and (unsigned-byte-p 8 x) (unsigned-byte-p 8 y))
  :concl (equal (- x y) (- y x))
  :g-bindings `((x ,(g-int 0 2 9)) (y ,(g-int 1 2 9))))

(def-gl-thm halving-distributes-below
  :hyp (and (unsigned-byte-p 8 x) (unsigned-byte-p 8 y) (< x y))
  :concl (equal (ash (+ x y) -1)
                (+ (ash x -1) (ash y -1)))
  :g-bindings `((x ,(g-int 0 2 9)) (y ,(g-int 1 2 9))))
