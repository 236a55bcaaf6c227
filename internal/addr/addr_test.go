package addr

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseIPRoundTrip(t *testing.T) {
	cases := []string{"0.0.0.0", "10.0.0.1", "192.168.1.255", "255.255.255.255", "1.2.3.4"}
	for _, s := range cases {
		ip, err := ParseIP(s)
		if err != nil {
			t.Fatalf("ParseIP(%q): %v", s, err)
		}
		if ip.String() != s {
			t.Errorf("round trip %q -> %q", s, ip.String())
		}
	}
}

func TestParseIPRejectsMalformed(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0", "a.b.c.d", "01.2.3.4", "1..2.3", "+1.2.3.4", "1.-0.3.4"}
	for _, s := range bad {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) accepted malformed input", s)
		}
	}
}

// parseIPSplit is ParseIP as it was before it read its input in place: it
// split the string and parsed each part with strconv.Atoi, which also let a
// signed octet ("+1", "-0") through. FuzzParseIP holds ParseIP to it.
func parseIPSplit(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("addr: malformed IPv4 %q", s)
	}
	var ip uint32
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("addr: malformed IPv4 octet %q in %q", p, s)
		}
		ip = ip<<8 | uint32(v)
	}
	return IP(ip), nil
}

// FuzzParseIP compares ParseIP with the split-and-Atoi parser it replaced:
// the same verdict, value and error text, except that a signed octet the old
// parser took is now refused, naming the first such octet. Whatever ParseIP
// accepts is canonical: String gives the input back.
func FuzzParseIP(f *testing.F) {
	for _, s := range []string{
		"0.0.0.0", "10.0.1.2", "255.255.255.255", "256.0.0.1", "01.2.3.4", "1..2.3",
		"1.2.3", "1.2.3.4.5", "", "a.b.c.d", "+1.2.3.4", "1.-0.3.4", "1.2.3.+01",
		"1.2.3.99999999999999999999", "1.2.3.4\x00", " 1.2.3.4", "+0...", "1.+2.x.4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseIP(s)
		want, wantErr := parseIPSplit(s)
		if parts := strings.Split(s, "."); len(parts) == 4 {
			// The first signed octet is refused unless the old parser
			// refused an octet before it.
			for _, p := range parts {
				if _, err := parseIPSplit(p + ".0.0.0"); err != nil {
					break
				}
				if p[0] == '+' || p[0] == '-' {
					want, wantErr = 0, fmt.Errorf("addr: malformed IPv4 octet %q in %q", p, s)
					break
				}
			}
		}
		if (err == nil) != (wantErr == nil) || got != want {
			t.Fatalf("ParseIP(%q) = %v, %v; want %v, %v", s, got, err, want, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("ParseIP(%q) error %q, want %q", s, err, wantErr)
			}
			return
		}
		if got.String() != s {
			t.Fatalf("ParseIP(%q) = %v, which renders differently", s, got)
		}
	})
}

func TestParseIPAllocatesNothing(t *testing.T) {
	var sink IP
	allocs := testing.AllocsPerRun(100, func() {
		ip, err := ParseIP("192.168.10.254")
		if err != nil {
			t.Fatal(err)
		}
		sink ^= ip
	})
	if allocs != 0 {
		t.Fatalf("ParseIP allocated %v times, want 0", allocs)
	}
}

func TestIPRoundTripProperty(t *testing.T) {
	err := quick.Check(func(v uint32) bool {
		ip := IP(v)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestV4Octets(t *testing.T) {
	ip := V4(10, 20, 30, 40)
	a, b, c, d := ip.Octets()
	if a != 10 || b != 20 || c != 30 || d != 40 {
		t.Fatalf("Octets = %d.%d.%d.%d", a, b, c, d)
	}
	if want, err := ParseIP("10.20.30.40"); err != nil || ip != want {
		t.Fatal("V4 disagrees with ParseIP")
	}
}

func TestMACRoundTrip(t *testing.T) {
	err := quick.Check(func(v uint64) bool {
		m := MAC(v & 0xffffffffffff)
		return MACFromBytes(m.Bytes()) == m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if Broadcast.String() != "ff:ff:ff:ff:ff:ff" {
		t.Fatalf("Broadcast = %v", Broadcast)
	}
}
